package repro.bench

import repro.SparkSpec
import repro.harness.Experiments

/** Reproduces Experiment 2 (Advogato, #RPQs ∈ {1, 2, 4, 6, 8, 10}):
  *
  *  - TABLE VII  — per-part computation times vs number of RPQs
  *  - TABLE VIII — query response time vs number of RPQs
  *
  * The paper's headline shape: per-RPQ Shared_Data amortizes linearly with
  * k (Full's 31.5 s at k=1 falls to 3.2 s at k=10; RTC's share is tiny
  * throughout), so Full/RTC falls with k while No/RTC stays flat-to-rising.
  */
class Exp2Bench extends SparkSpec {
  private implicit val s: org.apache.spark.sql.SparkSession = spark

  test("TABLES VII and VIII: Experiment 2") {
    val rows = Experiments.runExp2()
    println(Experiments.renderTable7(rows))
    println(Experiments.renderTable8(rows))

    for (r <- rows) {
      assert(r.full.resultRows == r.rtc.resultRows, s"k=${r.k}: result mismatch")
      assert(r.rtc.sharedSize <= r.full.sharedSize)
    }
    // Amortization shape: per-RPQ Shared_Data at k=10 is well below k=1.
    val k1 = rows.find(_.k == 1).get
    val k10 = rows.find(_.k == 10).get
    assert(k10.full.sharedMs < k1.full.sharedMs / 4,
      "FullSharing Shared_Data must amortize with k")
    assert(k10.rtc.sharedMs <= k1.rtc.sharedMs,
      "RTCSharing Shared_Data must not grow with k")
  }
}
