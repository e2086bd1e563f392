package repro.baselines

import repro.{SparkSpec, TestKit}
import repro.TestKit.{tiny, tinyTriples}
import repro.core.{Rpq, Rtc}
import repro.graph.GraphData
import repro.harness.Metrics

/** FullSharing baseline: shares the materialized `R+_G`; must agree with
  * the reference evaluator while caching per canonical `R`.
  */
class FullSharingSpec extends SparkSpec {
  private implicit val s: org.apache.spark.sql.SparkSession = spark

  private def graphOf(triples: Seq[(Long, String, Long)]) =
    GraphData.fromTuples(spark, triples)

  private def full(g: repro.graph.LabeledGraph, q: String,
                   cache: FullCache = new FullCache): Set[(Long, Long)] =
    TestKit.collectSet(FullSharing.evaluate(g, Rpq.parse(q), cache))

  test("closure-free clause") { assert(full(tiny, "a.b") == Set((1L, 3L), (2L, 1L))) }
  test("bare plus") { assert(full(tiny, "a+") == Set((1L, 2L), (2L, 4L), (1L, 4L))) }
  test("star includes identity via Pre_G union") {
    val got = full(tiny, "a*")
    assert((1L to 4L).forall(v => got.contains((v, v))))
  }
  test("batch unit with Pre and Post") {
    assert(full(tiny, "b.a+.b") == TestKit.bruteEval(tinyTriples, Rpq.parse("b.a+.b")))
  }

  test("cache: R+_G computed once across queries sharing R") {
    val cache = new FullCache
    val m1 = new Metrics
    FullSharing.evaluate(tiny, Rpq.parse("a.(b.c)+.a"), cache, m1).count()
    assert(m1.ms(Metrics.SharedData) > 0)
    val m2 = new Metrics
    FullSharing.evaluate(tiny, Rpq.parse("b.(b.c)+.c"), cache, m2).count()
    assert(m2.ms(Metrics.SharedData) == 0, "second query must reuse R+_G")
    assert(cache.contains(Rpq.parse("b.c")))
  }

  test("cache key: (b.c|a.b)+ after (a.b|b.c)+ reuses R+_G") {
    val cache = new FullCache
    full(tiny, "(a.b|b.c)+", cache)
    val sizeAfterFirst = cache.size
    val got = full(tiny, "(b.c|a.b)+", cache)
    assert(cache.size == sizeAfterFirst, "a reordered alternation must hit the cache")
    assert(got == TestKit.bruteEval(tinyTriples, Rpq.parse("(b.c|a.b)+")))
  }

  test("R+_G joins by broadcast under the limit and by shuffle over it") {
    import org.apache.spark.sql.execution.joins.BroadcastHashJoinExec
    import spark.implicits._
    val rg = Seq((1L, 2L), (2L, 3L)).toDF("s", "d")
    val preG = Seq((7L, 1L)).toDF("s", "d")
    for ((limit, broadcasts) <- Seq(Rtc.driverBudget -> 1, 0L -> 0)) {
      val cache = new FullCache(limit)
      val joined = cache.joinFrom(preG, cache.build(rg)._1)
      val plan = initialPlan(joined)
      assert(plan.collect { case j: BroadcastHashJoinExec => j }.size == broadcasts, plan.toString)
      assert(TestKit.collectSet(joined) == Set((7L, 2L), (7L, 3L)))
    }
  }

  test("totalSize reports the number of shared pairs") {
    val cache = new FullCache
    FullSharing.evaluate(tiny, Rpq.parse("a+"), cache).count()
    assert(cache.totalSize == 3) // (1,2),(2,4),(1,4)
  }

  test("FullCache.build(G_R) equals brute-force TC(G_R) on random G_R") {
    import spark.implicits._
    for (seed <- 1 to 6) {
      val edges = TestKit.randomEdges(numV = 20, numE = 15 * seed, seed = 1400 + seed)
      val (plus, size) = new FullCache().build(edges.toDF("s", "d"))
      val expected = TestKit.bruteTc(edges)
      assert(TestKit.collectSet(plus) == expected && size == expected.size, s"seed $seed")
    }
  }

  for (seed <- 1 to 4; q <- Seq("a+", "a.b+.c", "(a.b)+", "d.(b.c)+.c", "a.b*.c", "(a|b)+"))
    test(s"FullSharing ≡ NFA reference: '$q' seed $seed") {
      val triples = TestKit.letterTriples(numV = 11, numE = 36, numLabels = 4, seed = 1300 + seed)
      val g = graphOf(triples)
      assert(full(g, q) == TestKit.bruteEval(triples, Rpq.parse(q)), s"query $q seed $seed")
    }
}
