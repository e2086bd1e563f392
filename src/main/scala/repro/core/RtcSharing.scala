package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.{GraphData, LabeledGraph}
import repro.harness.Metrics

/** Cache of RTCs (Algorithm 1 lines 9–11).
  *
  * Algorithm 2 (`EvalBatchUnit`) up to the Post join is [[joinFrom]], the
  * join chain of equations (7)–(9), with the paper's operation
  * eliminations mapped to dataflow as follows:
  *
  *  - ''useless-1'': `R+` is evaluated by joining *from* `Pre_G` through
  *    the SCC relation and RTC — never by expanding `R+_G`.
  *  - ''redundant-1'': `DISTINCT` after `Pre_G ⋈ SCC` (eq. (7)).
  *  - ''redundant-2'': `DISTINCT` after `⋈ RTC` (eq. (8)).
  *  - ''useless-2'': no duplicate check after the final `⋈ SCC` expansion
  *    (eq. (9)) — SCC member sets are disjoint, so none is needed.
  *
  * The SCC relation and the RTC are small (Fig. 11), and [[Rtc.compute]]
  * builds both on the driver within its memory guard, so both always join
  * by broadcast. `Pre_G` is hash-partitioned by its start vertex `s` once;
  * every later step keeps `s` in its key, so both `DISTINCT`s run inside
  * their partitions.
  */
final class RtcCache extends SharedCache[RtcData] {
  import GraphData.{Src, Dst}

  def build(rg: DataFrame)(implicit spark: SparkSession): (RtcData, Long) = {
    val rtc = Rtc.compute(rg)
    (rtc, rtc.rtcSize)
  }

  def joinFrom(preG: DataFrame, rtc: RtcData): DataFrame = {
    val scc = broadcast(rtc.scc)
    val closure = broadcast(rtc.rtc)
    val pre = preG.repartition(col(Src))
    // (7): Pre_G ⋈ SCC, unioned (redundant-1 elimination).
    val eq7 = pre.alias("p")
      .join(scc.alias("c"), col(s"p.$Dst") === col("c.v"))
      .select(col(s"p.$Src").as(Src), col("c.scc").as("scc"))
      .distinct()
    // (8): ⋈ RTC, unioned (redundant-2 elimination).
    val eq8 = eq7.alias("a")
      .join(closure.alias("t"), col("a.scc") === col("t.ss"))
      .select(col(s"a.$Src").as(Src), col("t.es").as("scc"))
      .distinct()
    // (9): ⋈ SCC — no duplicate check (useless-2 elimination): the
    // (s, scc) rows are distinct and SCC member sets are disjoint.
    eq8.alias("b")
      .join(scc.alias("c2"), col("b.scc") === col("c2.scc"))
      .select(col(s"b.$Src").as(Src), col("c2.v").as(Dst))
  }
}

/** RTCSharing (paper §IV, Algorithms 1 and 2): [[Sharing.evaluate]] over
  * an [[RtcCache]].
  */
object RtcSharing {
  def evaluate(g: LabeledGraph, q: Rpq, cache: RtcCache,
               metrics: Metrics = Metrics.discard)
              (implicit spark: SparkSession): DataFrame =
    Sharing.evaluate(g, q, cache, metrics)
}
