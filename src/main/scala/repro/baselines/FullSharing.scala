package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Rpq, SharedCache, Sharing}
import repro.graph.{LabeledGraph, Pairs, TransitiveClosure}
import repro.harness.Metrics

/** Cache of fully materialized `R+_G` relations. `R+_G` is the semi-naive
  * transitive closure of the edge-level reduced graph `G_R` (Lemma 1) —
  * no vertex-level reduction — and is counted eagerly when built.
  */
final class FullCache extends SharedCache[DataFrame] {
  def build(rg: DataFrame)(implicit spark: SparkSession): DataFrame =
    TransitiveClosure.of(rg).localCheckpoint()

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
