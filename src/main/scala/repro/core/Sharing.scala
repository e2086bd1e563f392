package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{LabeledGraph, Pairs}
import repro.harness.Metrics
import scala.collection.mutable

/** The structure `S` that Algorithm 1 shares per closure body `R`, cached
  * across the batch units of one or many RPQs (lines 9–11: "If the RTC for
  * R exists, we reuse them"). RTCSharing and FullSharing differ only here:
  * [[RtcCache]] shares the SCC relation plus `TC(Ḡ_R)`,
  * [[repro.baselines.FullCache]] the materialized `R+_G`. Each entry is
  * sized once, when it is built.
  *
  * The key is a canonical rendering of `R`: alternation operands are
  * flattened, sorted and deduplicated, and `(R+)+` is `R+`, so bodies that
  * differ only in these ways share one entry.
  */
abstract class SharedCache[S] {
  private val entries = mutable.Map.empty[String, (S, Long)]

  /** Builds the shared structure from `R_G`, the edge relation of `G_R`.
    *
    * @return the structure and its pairs (the paper's shared-data size)
    */
  def build(rg: DataFrame)(implicit spark: SparkSession): (S, Long)

  /** `Pre_G ⋈ R+_G`, computed through the shared structure. */
  def joinFrom(preG: DataFrame, shared: S): DataFrame

  def getOrElseCompute(r: Rpq)(compute: => (S, Long)): S =
    entries.getOrElseUpdate(SharedCache.key(r), compute)._1

  def contains(r: Rpq): Boolean = entries.contains(SharedCache.key(r))
  def size: Int = entries.size
  def totalSize: Long = entries.values.map(_._2).sum
}

object SharedCache {
  private def key(r: Rpq): String = canonical(r).show

  private def canonical(r: Rpq): Rpq = r match {
    case Rpq.Alt(_, _) =>
      Rpq.alt(alternatives(r).map(canonical).distinctBy(_.show).sortBy(_.show))
    case Rpq.Cat(a, b) => Rpq.Cat(canonical(a), canonical(b))
    case Rpq.Plus(x) => canonical(x) match {
      case p @ Rpq.Plus(_) => p
      case c               => Rpq.Plus(c)
    }
    case Rpq.Star(x) => Rpq.Star(canonical(x))
    case leaf        => leaf
  }

  private def alternatives(r: Rpq): Seq[Rpq] = r match {
    case Rpq.Alt(a, b) => alternatives(a) ++ alternatives(b)
    case other         => Seq(other)
  }
}

/** Algorithm 1 for any shared structure: convert the query to DNF
  * (outermost closures as literals), evaluate each clause as a batch unit
  * `Pre · R^t · Post`, recursing into `Pre` and `R`, and union the clause
  * results. Parts are timed as in paper §V-B.
  */
object Sharing {

  /** @param metrics part-time accumulators (see [[Metrics]] keys)
    * @return the `(s, d)` pair relation `q_G`
    */
  def evaluate[S](g: LabeledGraph, q: Rpq, cache: SharedCache[S],
                  metrics: Metrics = Metrics.discard)
                 (implicit spark: SparkSession): DataFrame = {
    val clauseResults = Rpq.dnf(q).map { clause =>
      val bu = Rpq.decompose(clause)
      bu.typ match {
        case None =>
          // Clause has no Kleene closure: evaluate it whole (line 6).
          metrics.time(Metrics.Remainder) {
            RpqEval.evalWithoutKC(g, bu.post).localCheckpoint()
          }
        case Some(t) =>
          // Lines 8–12: Pre recursively, the shared structure from the cache
          // or built fresh.
          val preG = evaluate(g, bu.pre, cache, metrics)
          val shared = cache.getOrElseCompute(bu.r) {
            // R_G is computed identically by Full/RTC sharing and is not
            // part of Shared_Data (paper §V-B) — time it under Remainder.
            val rg = evaluate(g, bu.r, cache, metrics)
            metrics.time(Metrics.SharedData) { cache.build(rg) }
          }
          val preJoined = metrics.time(Metrics.PreJoin) {
            cache.joinFrom(preG, shared).localCheckpoint()
          }
          // Deviation noted in DESIGN.md: for `Type = *` the ε branch joins
          // Post too, `(Pre·R*·Post)_G = (Pre·Post)_G ∪ (Pre·R+·Post)_G`.
          metrics.time(Metrics.Remainder) {
            val withEps = if (t == '*') Pairs.union(preG, preJoined) else preJoined
            val res =
              if (bu.post == Rpq.Eps) withEps
              else Pairs.compose(withEps, RpqEval.evalWithoutKC(g, bu.post)) // (10)
            res.localCheckpoint()
          }
      }
    }
    // Each clause result is already materialized; only a union of several
    // is new work.
    clauseResults match {
      case Seq(only) => only
      case many      => many.reduce(Pairs.union).localCheckpoint()
    }
  }
}
