package repro.core

import repro.{SparkSpec, TestKit}
import repro.baselines.NoSharing
import repro.graph.{GraphData, Scc, TransitiveClosure}

/** End-to-end walk through the paper's running example (Figures 4–6,
  * Examples 3–6): a graph whose `b·c` paths realize exactly the published
  * `G_{b·c}`, pushed through edge-level reduction, vertex-level reduction,
  * the RTC, and Theorem 1.
  *
  * Fig. 1 itself is only partially recoverable from the text, so the graph
  * is constructed to *realize* the published `E_{b·c}`: for each edge
  * `(u, v)` of `G_{b·c}` we add `u -b-> m -c-> v` through a fresh
  * intermediate vertex `m` (VIDs 100+), making the example's reduced
  * structures exact.
  */
class PaperExampleSpec extends SparkSpec {
  private implicit val sess: org.apache.spark.sql.SparkSession = spark

  // Published E_{b·c} (Example 3): paths satisfying b·c exist between these.
  private val ebc = Seq((2L, 4L), (2L, 6L), (3L, 5L), (4L, 2L), (5L, 3L))

  private val g = GraphData.fromTuples(spark,
    ebc.zipWithIndex.flatMap { case ((u, v), i) =>
      val m = 100L + i
      Seq((u, "b", m), (m, "c", v))
    } ++ Seq( // extra edges not on any b·c path (reduction must drop them)
      (7L, "d", 4L), (6L, "a", 7L)))

  test("Example 3: edge-level reduction of G for b·c yields E_{b·c}") {
    val rg = RpqEval.eval(g, Rpq.parse("b.c"))
    assert(TestKit.collectSet(rg) == ebc.toSet)
  }

  test("edge-level reduction drops vertices/edges off satisfying paths") {
    val rg = TestKit.collectSet(RpqEval.eval(g, Rpq.parse("b.c")))
    assert(!rg.exists { case (s, d) => s == 7L || d == 7L })
  }

  test("Example 4: (b·c)+_G equals TC(G_{b·c}) (Lemma 1)") {
    import spark.implicits._
    val expected = Set((2L, 2L), (2L, 4L), (2L, 6L), (3L, 3L), (3L, 5L),
      (4L, 2L), (4L, 4L), (4L, 6L), (5L, 3L), (5L, 5L))
    val viaTc = TestKit.collectSet(TransitiveClosure.of(ebc.toDF("s", "d")))
    val viaRpq = TestKit.collectSet(RpqEval.eval(g, Rpq.parse("(b.c)+")))
    assert(viaTc == expected)
    assert(viaRpq == expected)
  }

  test("Example 5: SCCs of G_{b·c} are s0={2,4}, s1={6}, s2={3,5}") {
    import spark.implicits._
    val scc = Scc.assign(ebc.toDF("s", "d")).collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(scc == Map(2L -> 2L, 4L -> 2L, 6L -> 6L, 3L -> 3L, 5L -> 3L))
  }

  test("Example 5: condensed graph has the three published edges") {
    import spark.implicits._
    val edges = ebc.toDF("s", "d")
    val got = TestKit.collectSet(Scc.condense(edges, Scc.assign(edges)))
    assert(got == Set((2L, 2L), (2L, 6L), (3L, 3L))) // self-loops for s0, s2
  }

  test("Example 6: RTC and its expansion reproduce TC(G_{b·c})") {
    import spark.implicits._
    val data = Rtc.compute(ebc.toDF("s", "d"))
    val rtc = data.rtc.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(rtc == Set((2L, 2L), (2L, 6L), (3L, 3L)))
    assert(TestKit.collectSet(Rtc.expand(data)) ==
      TestKit.collectSet(TransitiveClosure.of(ebc.toDF("s", "d"))))
  }

  test("full pipeline: RTCSharing evaluates (b.c)+ on G to the Example 4 set") {
    val got = TestKit.collectSet(
      RtcSharing.evaluate(g, Rpq.parse("(b.c)+"), new RtcCache))
    assert(got == Set((2L, 2L), (2L, 4L), (2L, 6L), (3L, 3L), (3L, 5L),
      (4L, 2L), (4L, 4L), (4L, 6L), (5L, 3L), (5L, 5L)))
  }

  test("batch unit d.(b.c)+ starting from the d-edge prefix") {
    // Pre = d: (7 -> 4); then (b·c)+ from 4 reaches {2, 4, 6}.
    val got = TestKit.collectSet(
      RtcSharing.evaluate(g, Rpq.parse("d.(b.c)+"), new RtcCache))
    assert(got == Set((7L, 2L), (7L, 4L), (7L, 6L)))
  }

  test("RTCSharing agrees with NoSharing on the example graph") {
    for (q <- Seq("(b.c)+", "d.(b.c)+", "b.c", "(b.c)*", "d.(b.c)*"))
      assert(
        TestKit.collectSet(RtcSharing.evaluate(g, Rpq.parse(q), new RtcCache)) ==
        TestKit.collectSet(NoSharing.evaluate(g, Rpq.parse(q))), s"query $q")
  }
}
