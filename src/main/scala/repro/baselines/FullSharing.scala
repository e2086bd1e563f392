package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.broadcast
import repro.core.{Rpq, Rtc, SharedCache, Sharing}
import repro.graph.{LabeledGraph, Pairs}
import repro.harness.Metrics

/** Cache of fully materialized `R+_G` relations, counted eagerly when
  * built. `R+_G = TC(G_R)` (Lemma 1) is built with RTCSharing's closure
  * engine: the one-pass RTC build, then its Theorem-1 expansion in Spark.
  * Only the structure shared differs from [[repro.core.RtcCache]]: the
  * whole `R+_G` instead of the SCC relation and the RTC.
  *
  * `R+_G` is the one shared relation that Spark builds, and it can reach
  * `|V(G_R)|²` pairs, so it alone has a size rule: it joins by broadcast
  * when the driver can hold it, at the RTC build's bytes per row
  * ([[Rtc.BytesPerPair]]) within its budget ([[Rtc.driverBudget]]), and
  * keeps the shuffle join otherwise. The limit bounds driver memory, not
  * speed: on the Advogato stand-in, broadcasting a 560,169-pair `R+_G` was
  * as fast as shuffling it, and no larger one has been measured. The
  * session's own broadcast threshold stays off; only the shared relations
  * are hinted, by their exact size.
  *
  * @param broadcastBytes the broadcast limit; [[Rtc.driverBudget]] outside
  *                       tests
  */
final class FullCache private[repro] (broadcastBytes: Long) extends SharedCache[DataFrame] {

  def this() = this(Rtc.driverBudget)

  def build(rg: DataFrame)(implicit spark: SparkSession): (DataFrame, Long) = {
    val rPlusG = Rtc.expand(Rtc.compute(rg)).localCheckpoint()
    val pairs = rPlusG.count()
    (if (pairs * Rtc.BytesPerPair <= broadcastBytes) broadcast(rPlusG) else rPlusG, pairs)
  }

  def joinFrom(preG: DataFrame, rPlusG: DataFrame): DataFrame = Pairs.compose(preG, rPlusG)
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
