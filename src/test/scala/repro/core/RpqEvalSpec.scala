package repro.core

import repro.{Oracle, SparkSpec, TestKit}
import repro.TestKit.{tiny, tinyTriples}
import repro.data.GraphGen

/** Reference relational evaluator: labels as selections, concatenation as
  * joins (Lemma 4), alternation as union, closures via TC (Lemma 1) —
  * checked against the driver-side NFA BFS and the DuckDB oracle.
  */
class RpqEvalSpec extends SparkSpec {

  private def graphOf(triples: Seq[(Long, String, Long)]) =
    TestKit.fromTuples(spark, triples)

  private def evalSet(g: repro.graph.LabeledGraph, q: String): Set[(Long, Long)] =
    TestKit.collectSet(RpqEval.eval(g, Rpq.parse(q)))

  test("single label selects exactly its edges") {
    assert(evalSet(tiny, "a") == Set((1L, 2L), (2L, 4L)))
  }
  test("label selection has no duplicate rows: repeated input triples, GraphGen.random") {
    val repeated = graphOf(tinyTriples ++ tinyTriples ++ Seq((1L, "a", 2L)))
    val random = GraphGen.random(spark, numV = 30, numE = 400, numLabels = 2, seed = 7)
    for ((g, l) <- Seq(repeated -> "a", repeated -> "b", random -> "l0", random -> "l1")) {
      val sel = RpqEval.eval(g, Rpq.Lbl(l))
      assert(sel.count() == sel.distinct().count(), s"label $l")
    }
    assert(evalSet(repeated, "a") == evalSet(tiny, "a"))
  }
  test("missing label yields empty relation") {
    assert(evalSet(tiny, "z") == Set.empty)
  }
  test("concatenation composes via join (Lemma 4)") {
    assert(evalSet(tiny, "a.b") == Set((1L, 3L), (2L, 1L)))
  }
  test("three-way concatenation") {
    assert(evalSet(tiny, "a.b.c") == Set((1L, 4L)))
  }
  test("alternation unions the operand results") {
    assert(evalSet(tiny, "a|b") ==
      Set((1L, 2L), (2L, 4L), (2L, 3L), (4L, 1L), (1L, 3L)))
  }
  test("epsilon evaluates to the identity over V") {
    assert(evalSet(tiny, "ε") == (1L to 4L).map(v => (v, v)).toSet)
  }
  test("Kleene star includes the identity") {
    val star = evalSet(tiny, "a*")
    assert((1L to 4L).forall(v => star.contains((v, v))))
    assert(star.contains((1L, 4L))) // a.a through 1->2->4
  }
  test("Kleene plus excludes identity off-cycle") {
    val plus = evalSet(tiny, "a+")
    assert(plus == Set((1L, 2L), (2L, 4L), (1L, 4L)))
  }
  test("concatenation deduplicates multiple witness paths") {
    val g = graphOf(Seq((1L, "a", 2L), (1L, "a", 3L), (2L, "b", 9L), (3L, "b", 9L)))
    assert(TestKit.collectSet(RpqEval.eval(g, Rpq.parse("a.b"))) == Set((1L, 9L)))
  }
  test("evalWithoutKC rejects closures") {
    intercept[IllegalArgumentException](RpqEval.evalWithoutKC(tiny, Rpq.parse("a+")))
  }
  test("evalWithoutKC accepts closure-free queries") {
    assert(TestKit.collectSet(RpqEval.evalWithoutKC(tiny, Rpq.parse("a.b|b"))) ==
      evalSet(tiny, "a.b|b"))
  }

  // Differential vs the driver-side NFA-product reference on random data.
  private val queries = Seq("a", "a.b", "a|b", "a.b.c", "(a|b).c", "a+",
    "(a.b)+", "a.b+", "a*.b", "(a|b)+", "a.(b|c)+.a", "b.(a.b)+")
  for (seed <- 1 to 5; q <- queries)
    test(s"matches NFA BFS reference: '$q' on random graph seed $seed") {
      val triples = TestKit.letterTriples(numV = 12, numE = 35, numLabels = 3, seed = 500 + seed)
      val g = graphOf(triples)
      assert(TestKit.collectSet(RpqEval.eval(g, Rpq.parse(q))) ==
        TestKit.bruteEval(triples, Rpq.parse(q)), s"query $q seed $seed")
    }

  // DuckDB oracle checks for the join-only fragment.
  test("DuckDB oracle: concatenation a.b") {
    val df = RpqEval.eval(tiny, Rpq.parse("a.b"))
    Oracle.assertEquivalent(df,
      """SELECT DISTINCT e1.s AS s, e2.d AS d
        |FROM edges e1 JOIN edges e2 ON e1.d = e2.s
        |WHERE e1.label = 'a' AND e2.label = 'b'""".stripMargin,
      "edges" -> tiny.edges)
  }
  test("DuckDB oracle: alternation a|b") {
    val df = RpqEval.eval(tiny, Rpq.parse("a|b"))
    Oracle.assertEquivalent(df,
      "SELECT DISTINCT s, d FROM edges WHERE label IN ('a','b')",
      "edges" -> tiny.edges)
  }
  test("DuckDB oracle: Kleene plus a+ via recursive CTE") {
    val df = RpqEval.eval(tiny, Rpq.parse("a+"))
    Oracle.assertEquivalent(df,
      """WITH RECURSIVE
        | ra AS (SELECT DISTINCT s, d FROM edges WHERE label = 'a'),
        | tc AS (SELECT s, d FROM ra UNION SELECT tc.s, ra.d FROM tc JOIN ra ON tc.d = ra.s)
        |SELECT s AS s, d AS d FROM tc""".stripMargin,
      "edges" -> tiny.edges)
  }
}
