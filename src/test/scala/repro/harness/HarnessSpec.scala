package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.Rpq
import repro.data.QueryGen.RpqSet
import repro.data.{Datasets, GraphGen}

/** Metrics accounting and the experiment harness invariants. */
class MetricsSpec extends AnyFunSuite {
  test("time accumulates across calls") {
    val m = new Metrics
    m.time("x") { Thread.sleep(5) }
    m.time("x") { Thread.sleep(5) }
    assert(m.ms("x") >= 10.0)
  }
  test("unknown key reads as zero") {
    assert(new Metrics().ms("nope") == 0.0)
  }
  test("nested same-key blocks count once (no double counting)") {
    val m = new Metrics
    m.time("x") { m.time("x") { Thread.sleep(20) } }
    assert(m.ms("x") < 40.0, s"double-counted: ${m.ms("x")}")
  }
  test("returns the body's value") {
    assert(new Metrics().time("k")(41 + 1) == 42)
  }
  test("exceptions still record elapsed time") {
    val m = new Metrics
    intercept[RuntimeException](m.time("x") { Thread.sleep(5); throw new RuntimeException })
    assert(m.ms("x") >= 5.0)
  }
}

class HarnessSpec extends SparkSpec {
  private implicit val s: org.apache.spark.sql.SparkSession = spark
  import Harness._

  private lazy val g = GraphGen.random(spark, 60, 240, 3, seed = 21).materialize
  private lazy val set = RpqSet(Rpq.parse("l0"),
    Seq("l1.l0+.l2", "l2.l0+.l1", "l0.l0+.l0", "l1.l0+.l1").map(Rpq.parse))

  test("all three methods produce identical result row counts") {
    val rtc = runSet(g, set, Rtc, k = 3)
    val full = runSet(g, set, Full, k = 3)
    val no = runSet(g, set, No, k = 3)
    assert(rtc.resultRows == full.resultRows)
    assert(rtc.resultRows == no.resultRows)
  }
  test("response time covers the per-part sum") {
    val r = runSet(g, set, Rtc, k = 2)
    assert(r.responseMs >= r.sharedMs, "wall clock below shared part")
    assert(r.responseMs > 0 && r.preJoinMs >= 0 && r.remainderMs >= 0)
  }
  test("NoSharing reports no shared structure") {
    val r = runSet(g, set, No, k = 2)
    assert(r.sharedSize == 0 && r.sharedMs == 0.0)
  }
  test("RTC shared size never exceeds Full shared size") {
    val rtc = runSet(g, set, Rtc, k = 2)
    val full = runSet(g, set, Full, k = 2)
    assert(rtc.sharedSize <= full.sharedSize)
  }
  test("average of identical runs is the run itself (modulo rounding)") {
    val r = runSet(g, set, Rtc, k = 1)
    val a = average(Seq(r, r))
    assert(math.abs(a.responseMs - r.responseMs) < 1e-9)
    assert(a.sharedSize == r.sharedSize)
  }
  test("average rejects the empty sequence") {
    intercept[IllegalArgumentException](average(Seq.empty))
  }
  test("workload derives sets from the dataset alphabet") {
    val spec = Datasets.Robots
    val graph = spec.load(spark)
    val sets = workload(spec, graph)
    assert(sets.nonEmpty)
    assert(sets.forall(_.queries.size == 10))
  }
}
