package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Rpq, Rtc, SharedCache, Sharing}
import repro.graph.{LabeledGraph, Pairs}
import repro.harness.Metrics

/** Cache of fully materialized `R+_G` relations, counted eagerly when
  * built. `R+_G = TC(G_R)` (Lemma 1) is built with RTCSharing's closure
  * engine: the one-pass RTC build, then its Theorem-1 expansion in Spark.
  * Only the structure shared differs from [[repro.core.RtcCache]]: the
  * whole `R+_G` instead of the SCC relation and the RTC.
  */
final class FullCache extends SharedCache[DataFrame] {
  def build(rg: DataFrame)(implicit spark: SparkSession): DataFrame =
    Rtc.expand(Rtc.compute(rg)).localCheckpoint()

  def joinFrom(preG: DataFrame, rPlusG: DataFrame): DataFrame = Pairs.compose(preG, rPlusG)

  def sizeOf(rPlusG: DataFrame): Long = rPlusG.count()
}

/** FullSharing baseline (Abul-Basher [8], paper §V): [[Sharing.evaluate]]
  * over a [[FullCache]].
  *
  * Shares the *full* evaluation result `R+_G` of the common sub-query
  * among RPQs, and evaluates each batch unit as `Pre_G ⋈ R+_G ⋈ Post_G`
  * with a duplicate-eliminating union after each join. Relative to
  * RTCSharing this performs the paper's ''redundant-1'', ''redundant-2''
  * and ''useless-1'' operations: the join touches every `R+_G` pair and
  * deduplicates at vertex granularity.
  */
object FullSharing {
  def evaluate(g: LabeledGraph, q: Rpq, cache: FullCache,
               metrics: Metrics = Metrics.discard)
              (implicit spark: SparkSession): DataFrame =
    Sharing.evaluate(g, q, cache, metrics)
}
