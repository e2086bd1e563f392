package repro.core

import org.apache.spark.sql.execution.exchange.{REPARTITION_BY_COL, ShuffleExchangeExec}
import org.apache.spark.sql.execution.joins.BroadcastHashJoinExec
import repro.{Oracle, SparkSpec, TestKit}
import repro.TestKit.{tiny, tinyTriples}
import repro.baselines.{FullCache, FullSharing, NoSharing}
import repro.graph.{GraphData, Pairs}
import repro.harness.Metrics

/** RTCSharing (Algorithms 1–2): correctness against the reference
  * evaluator, both baselines, the DuckDB oracle, the paper's worked
  * examples, and the RTC cache-sharing behaviour of Example 7.
  */
class RtcSharingSpec extends SparkSpec {
  private implicit val s: org.apache.spark.sql.SparkSession = spark

  private def graphOf(triples: Seq[(Long, String, Long)]) =
    GraphData.fromTuples(spark, triples)

  private def rtcEval(g: repro.graph.LabeledGraph, q: String,
                      cache: RtcCache = new RtcCache): Set[(Long, Long)] =
    TestKit.collectSet(RtcSharing.evaluate(g, Rpq.parse(q), cache))

  // ------------------------------------------------------- basic clauses

  test("closure-free clause goes through EvalRPQwithoutKC") {
    assert(rtcEval(tiny, "a.b") == Set((1L, 3L), (2L, 1L)))
  }
  test("bare Kleene plus (Pre = Post = ε)") {
    assert(rtcEval(tiny, "a+") == Set((1L, 2L), (2L, 4L), (1L, 4L)))
  }
  test("bare Kleene star adds the identity") {
    val got = rtcEval(tiny, "a*")
    assert((1L to 4L).forall(v => got.contains((v, v))) && got.contains((1L, 4L)))
  }
  test("batch unit with Pre and Post") {
    // b.(a)+.b : 4 -b-> 1 -a-> 2 -a-> 4 ... then -b-> {1,3}
    val expected = TestKit.bruteEval(tinyTriples, Rpq.parse("b.a+.b"))
    assert(rtcEval(tiny, "b.a+.b") == expected)
  }
  test("alternation of clauses unions batch-unit results") {
    assert(rtcEval(tiny, "a+|b") ==
      (rtcEval(tiny, "a+") ++ rtcEval(tiny, "b")))
  }
  test("star batch unit includes the Pre·Post shortcut: a.b*.c") {
    // (a.b*.c)_G = (a.c)_G ∪ (a.b+.c)_G
    val viaPlus = rtcEval(tiny, "a.b+.c")
    val direct = rtcEval(tiny, "a.c")
    assert(rtcEval(tiny, "a.b*.c") == (viaPlus ++ direct))
  }

  // --------------------------------------------- Example 7 recursion tree

  test("Example 7 query 2: a.(a.b)+.b evaluates and caches RTC for a.b") {
    val cache = new RtcCache
    val got = rtcEval(tiny, "a.(a.b)+.b", cache)
    assert(cache.contains(Rpq.parse("a.b")))
    assert(got == TestKit.bruteEval(tinyTriples, Rpq.parse("a.(a.b)+.b")))
  }

  test("Example 7 query 3: nested closures reuse cached RTCs") {
    val cache = new RtcCache
    rtcEval(tiny, "a.(a.b)+.b", cache)            // populates RTC for a.b
    assert(cache.size == 1)
    rtcEval(tiny, "(a.b)*.b+", cache)             // populates RTC for b, reuses a.b
    assert(cache.contains(Rpq.parse("b")) && cache.size == 2)
    val got = rtcEval(tiny, "(a.b)*.b+.(a.b+.c)+", cache)
    // now RTCs for a.b, b, and a.b+.c exist; a.b and b were reused
    assert(cache.contains(Rpq.parse("a.b+.c")) && cache.size == 3)
    assert(got == TestKit.bruteEval(tinyTriples, Rpq.parse("(a.b)*.b+.(a.b+.c)+")))
  }

  test("cache sharing across queries computes each RTC once") {
    val cache = new RtcCache
    rtcEval(tiny, "a.(b.c)+.a", cache)
    val sizeAfterFirst = cache.size
    rtcEval(tiny, "b.(b.c)+.c", cache)
    assert(cache.size == sizeAfterFirst, "second query must reuse the RTC for b.c")
  }

  test("cache key: (b.c|a.b)+ after (a.b|b.c)+ reuses the RTC") {
    val cache = new RtcCache
    rtcEval(tiny, "(a.b|b.c)+", cache)
    val sizeAfterFirst = cache.size
    val got = rtcEval(tiny, "(b.c|a.b)+", cache)
    assert(cache.size == sizeAfterFirst, "a reordered alternation must hit the cache")
    assert(got == TestKit.bruteEval(tinyTriples, Rpq.parse("(b.c|a.b)+")))
  }

  test("cache key: a body (R+)+ reuses the RTC of R+") {
    val cache = new RtcCache
    rtcEval(tiny, "((a.b)+)+", cache)                // RTCs for a.b and (a.b)+
    assert(cache.size == 2)
    val got = rtcEval(tiny, "(((a.b)+)+)+", cache)  // body ((a.b)+)+ keys as (a.b)+
    assert(cache.size == 2)
    assert(got == TestKit.bruteEval(tinyTriples, Rpq.parse("(((a.b)+)+)+")))
  }

  // ----------------------------------------------- physical plan of (7)–(9)

  test("plan: a small RTC joins by broadcast after one Pre_G repartition") {
    import spark.implicits._
    val rg = Seq((1L, 2L), (2L, 1L), (2L, 3L), (3L, 4L), (5L, 5L)).toDF("s", "d")
    val preG = Seq((7L, 1L), (8L, 3L), (9L, 5L), (7L, 2L)).toDF("s", "d")
    val cache = new RtcCache
    val joined = cache.joinFrom(preG, cache.build(rg)._1)
    val plan = initialPlan(joined)
    val shuffles = plan.collect { case e: ShuffleExchangeExec => e }
    assert(shuffles.map(_.shuffleOrigin) == Seq(REPARTITION_BY_COL), plan.toString)
    assert(plan.collect { case j: BroadcastHashJoinExec => j }.size == 3, plan.toString)
    val got = TestKit.collectSet(joined)
    assert(got == TestKit.collectSet(Pairs.compose(preG, new FullCache(0L).build(rg)._1)))
    assert(got == Set((7L, 1L), (7L, 2L), (7L, 3L), (7L, 4L), (8L, 4L), (9L, 5L)))
  }

  // ------------------------------------------------------- differential

  private val queries = Seq("a", "a.b", "a+", "(a.b)+", "a.b+.c", "d.(b.c)+.c",
    "a.(b.c)+", "(a.b)*.b+", "a.b*.c", "(a|b)+", "a+|b.c", "(a|b).(c.d)+",
    "a.(a.b)+.b", "(a.b)*.b+.(a.b+.c)+")
  for (seed <- 1 to 4; q <- queries)
    test(s"RTCSharing ≡ NFA reference: '$q' on random graph seed $seed") {
      val triples = TestKit.letterTriples(numV = 11, numE = 38, numLabels = 4, seed = 1000 + seed)
      val g = graphOf(triples)
      assert(rtcEval(g, q) == TestKit.bruteEval(triples, Rpq.parse(q)),
        s"query $q seed $seed")
    }

  // RTCSharing has one join plan, so RTC and NoSharing are evaluated once
  // per (seed, query), and Full once per plan: its broadcast join (default
  // limit) and, with a zero limit, its shuffle join.
  private val reference =
    scala.collection.mutable.Map.empty[(Int, String), (Set[(Long, Long)], Set[(Long, Long)])]

  for (seed <- 1 to 3; q <- Seq("a.b+.c", "(a.b)+", "a.(b.c)+.d", "b+.a",
                                "(a.b)*.b+.(a.b+.c)+", "a+|b.c");
       (path, limit) <- Seq("" -> Rtc.driverBudget, ", shuffle joins" -> 0L))
    test(s"RTCSharing ≡ FullSharing ≡ NoSharing: '$q' seed $seed$path") {
      val triples = TestKit.letterTriples(numV = 10, numE = 34, numLabels = 4, seed = 1100 + seed)
      val g = graphOf(triples)
      val (rtc, no) = reference.getOrElseUpdate((seed, q),
        (rtcEval(g, q), TestKit.collectSet(NoSharing.evaluate(g, Rpq.parse(q)))))
      val full = TestKit.collectSet(FullSharing.evaluate(g, Rpq.parse(q), new FullCache(limit)))
      assert(rtc == full, s"RTC vs Full on $q")
      assert(rtc == no, s"RTC vs No on $q")
    }

  // ------------------------------------------------------- DuckDB oracle

  for (seed <- 1 to 3)
    test(s"DuckDB oracle: batch unit a.(b.c)+.d, random graph seed $seed") {
      val triples = TestKit.letterTriples(numV = 10, numE = 36, numLabels = 4, seed = 1200 + seed)
      val g = graphOf(triples)
      val df = RtcSharing.evaluate(g, Rpq.parse("a.(b.c)+.d"), new RtcCache)
      Oracle.assertEquivalent(df,
        TestKit.duckBatchUnitSql("a", Seq("b", "c"), "d"), "edges" -> g.edges)
    }

  test("DuckDB oracle: batch unit on the tiny graph") {
    val df = RtcSharing.evaluate(tiny, Rpq.parse("b.a+.b"), new RtcCache)
    Oracle.assertEquivalent(df,
      TestKit.duckBatchUnitSql("b", Seq("a"), "b"), "edges" -> tiny.edges)
  }

  // ------------------------------------------------------------- metrics

  test("metrics: batch unit accrues all three parts, shared on miss only") {
    val cache = new RtcCache
    val m1 = new Metrics
    RtcSharing.evaluate(tiny, Rpq.parse("a.(b.c)+.a"), cache, m1).count()
    assert(m1.ms(Metrics.SharedData) > 0, "cache miss must time Shared_Data")
    assert(m1.ms(Metrics.PreJoin) > 0)
    assert(m1.ms(Metrics.Remainder) > 0)
    val m2 = new Metrics
    RtcSharing.evaluate(tiny, Rpq.parse("b.(b.c)+.b"), cache, m2).count()
    assert(m2.ms(Metrics.SharedData) == 0, "cache hit must not re-time Shared_Data")
    assert(m2.ms(Metrics.PreJoin) > 0)
  }

  test("empty Pre_G produces empty batch-unit result") {
    assert(rtcEval(tiny, "z.a+.b") == Set.empty)
  }
  test("empty R produces empty closure result for plus") {
    assert(rtcEval(tiny, "a.z+.b") == Set.empty)
  }
  test("empty R with star degenerates to Pre·Post") {
    assert(rtcEval(tiny, "a.z*.b") == rtcEval(tiny, "a.b"))
  }
}
