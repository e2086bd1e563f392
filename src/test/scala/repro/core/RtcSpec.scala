package repro.core

import repro.{SparkSpec, TestKit}
import repro.graph.TransitiveClosure

/** The reduced transitive closure: `Compute_RTC` and Theorem 1/2 — the
  * RTC-expanded `R+_G` must equal the direct `TC(G_R)` on every graph.
  */
class RtcSpec extends SparkSpec {
  import spark.implicits._
  private implicit val s: org.apache.spark.sql.SparkSession = spark

  test("Example 6: RTC of G_{b·c} is {(s0,s0),(s0,s1),(s2,s2)}") {
    val grbc = Seq((2L, 4L), (2L, 6L), (3L, 5L), (4L, 2L), (5L, 3L)).toDF("s", "d")
    val data = Rtc.compute(grbc)
    // min-member SCC ids: s0 = {2,4} -> 2, s1 = {6} -> 6, s2 = {3,5} -> 3.
    val rtc = data.rtc.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(rtc == Set((2L, 2L), (2L, 6L), (3L, 3L)))
    assert(data.rtcSize == 3)
  }

  test("Example 6: expanding the RTC reproduces TC(G_{b·c}) (Theorem 1)") {
    val grbc = Seq((2L, 4L), (2L, 6L), (3L, 5L), (4L, 2L), (5L, 3L)).toDF("s", "d")
    val expanded = TestKit.collectSet(Rtc.expand(Rtc.compute(grbc)))
    val expected = Set((2L, 2L), (2L, 4L), (2L, 6L), (3L, 3L), (3L, 5L),
      (4L, 2L), (4L, 4L), (4L, 6L), (5L, 3L), (5L, 5L))
    assert(expanded == expected)
  }

  test("trivial SCC without self-loop contributes no reflexive pair") {
    val chain = Seq((1L, 2L), (2L, 3L)).toDF("s", "d")
    val expanded = TestKit.collectSet(Rtc.expand(Rtc.compute(chain)))
    assert(expanded == Set((1L, 2L), (2L, 3L), (1L, 3L)))
  }

  test("self-loop vertex keeps its reflexive pair through reduction") {
    val g = Seq((1L, 1L), (1L, 2L)).toDF("s", "d")
    val expanded = TestKit.collectSet(Rtc.expand(Rtc.compute(g)))
    assert(expanded == Set((1L, 1L), (1L, 2L)))
  }

  test("RTC is never larger than the full closure") {
    for (seed <- 1 to 5) {
      val edges = TestKit.randomEdges(20, 60, 700 + seed)
      val df = edges.toDF("s", "d")
      val data = Rtc.compute(df)
      assert(data.rtcSize <= TestKit.bruteTc(edges).size)
    }
  }

  /** Sparse random edges plus self-loops on some of their trivial SCCs. */
  private def selfLoopsOnTrivial(seed: Long): Seq[(Long, Long)] = {
    val edges = TestKit.randomEdges(numV = 20, numE = 24, seed = seed)
    val scc = TestKit.bruteScc(edges)
    val sizes = scc.groupMapReduce(_._2)(_ => 1)(_ + _)
    val trivial = scc.collect { case (v, c) if sizes(c) == 1 => v }
    (edges ++ trivial.toSeq.sorted.take(4).map(v => (v, v))).distinct
  }

  private val theorem1Inputs: Seq[(String, Seq[(Long, Long)])] =
    (1 to 10).map(seed =>
      s"random seed $seed" -> TestKit.randomEdges(numV = 18, numE = 40, seed = 800 + seed)) ++
    (1 to 3).map(seed =>
      s"dense seed $seed (one giant SCC)" -> TestKit.randomEdges(numV = 30, numE = 150, seed = 850 + seed)) ++
    (1 to 3).map(seed => s"self-loops on trivial SCCs, seed $seed" -> selfLoopsOnTrivial(870 + seed)) ++
    Seq("acyclic chain" -> (0L until 30L).map(i => (i, i + 1)),
        "empty G_R" -> Seq.empty[(Long, Long)])

  for ((name, edges) <- theorem1Inputs)
    test(s"Theorem 1: RTC expansion equals TC(G_R), $name") {
      val df = edges.toDF("s", "d")
      val data = Rtc.compute(df)
      val viaRtc = TestKit.collectSet(Rtc.expand(data))
      val direct = TestKit.collectSet(TransitiveClosure.of(df))
      assert(viaRtc == direct)
      assert(data.scc.count() == edges.flatMap(e => Seq(e._1, e._2)).distinct.size, "SCC rows")
    }

  test("driver guard: a build past the budget fails naming |G_R|, n, bytes and budget") {
    assert(Rtc.reachBytes(0) == 0 && Rtc.reachBytes(64) == 64 * 8 && Rtc.reachBytes(65) == 65 * 16)
    Rtc.requireDriverMemory(grEdges = 10, components = 5, "5 reach bitsets", bytes = 100, budget = 100)
    val need = Rtc.reachBytes(300)
    val e = intercept[IllegalStateException](
      Rtc.requireDriverMemory(grEdges = 1000, components = 300, "300 reach bitsets", need, budget = 4096))
    for (part <- Seq("|G_R| = 1000", "n = 300", s"$need bytes", "budget of 4096 bytes"))
      assert(e.getMessage.contains(part), e.getMessage)
  }

  test("vertex-level reduction effectiveness: dense graph shrinks hard") {
    // Degree-dense random graph: giant SCC, so |RTC| << |TC(G_R)|.
    val edges = TestKit.randomEdges(numV = 40, numE = 200, seed = 900)
    val df = edges.toDF("s", "d")
    val data = Rtc.compute(df)
    val full = TestKit.bruteTc(edges).size
    assert(data.rtcSize < full / 4,
      s"expected strong reduction, got |RTC|=${data.rtcSize} vs |TC|=$full")
  }
}
