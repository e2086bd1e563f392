package repro.baselines

import repro.{SparkSpec, TestKit}
import repro.TestKit.tiny
import repro.core.Rpq

/** NoSharing (automaton-guided product BFS) vs the reference relational
  * evaluator and the driver-side NFA BFS.
  */
class NoSharingSpec extends SparkSpec {
  private implicit val s: org.apache.spark.sql.SparkSession = spark

  private def graphOf(triples: Seq[(Long, String, Long)]) =
    TestKit.fromTuples(spark, triples)

  private def no(g: repro.graph.LabeledGraph, q: String): Set[(Long, Long)] =
    TestKit.collectSet(NoSharing.evaluate(g, Rpq.parse(q)))

  test("single label") { assert(no(tiny, "a") == Set((1L, 2L), (2L, 4L))) }
  test("concatenation") { assert(no(tiny, "a.b") == Set((1L, 3L), (2L, 1L))) }
  test("Kleene plus") { assert(no(tiny, "a+") == Set((1L, 2L), (2L, 4L), (1L, 4L))) }
  test("Kleene star includes identity over all vertices") {
    val got = no(tiny, "a*")
    assert((1L to 4L).forall(v => got.contains((v, v))))
  }
  test("epsilon query returns exactly the identity") {
    assert(no(tiny, "ε") == (1L to 4L).map(v => (v, v)).toSet)
  }
  test("unsatisfiable label yields empty result") {
    assert(no(tiny, "z") == Set.empty)
  }
  test("cycle query terminates (duplicate-state visit rule of Example 2)") {
    val ring = graphOf(Seq((1L, "a", 2L), (2L, "a", 3L), (3L, "a", 1L)))
    val got = no(ring, "a+")
    assert(got == (for { a <- 1L to 3L; b <- 1L to 3L } yield (a, b)).toSet)
  }

  private val queries = Seq("a", "a.b", "a|b", "(a|b).c", "a+", "(a.b)+",
    "a.b+.c", "d.(b.c)+.c", "a*.b", "(a|b)+", "a.(b.c)+", "(a.b)*.b+")
  for (seed <- 1 to 4; q <- queries)
    test(s"NoSharing ≡ reference evaluator: '$q' on random graph seed $seed") {
      val triples = TestKit.letterTriples(numV = 12, numE = 40, numLabels = 4, seed = 600 + seed)
      val g = graphOf(triples)
      val got = TestKit.collectSet(NoSharing.evaluate(g, Rpq.parse(q)))
      assert(got == TestKit.bruteEval(triples, Rpq.parse(q)), s"query $q seed $seed")
    }
}
