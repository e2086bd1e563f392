package repro.harness

import scala.collection.mutable

/** Named wall-clock accumulators for the paper's per-part timing breakdown
  * (§V-B): `Shared_Data`, `Pre_G ⋈ R+_G`, and `Remainder`.
  *
  * Evaluators end every timed phase with an eager `localCheckpoint()` so
  * Spark's laziness cannot smear work across phase boundaries. `time` is
  * reentrancy-guarded: when a timed block calls into another timed block
  * (recursive RPQ evaluation), only the outermost block for a key accrues,
  * so parts never double-count.
  */
final class Metrics {
  private val acc = mutable.Map.empty[String, Long].withDefaultValue(0L)
  private val active = mutable.Set.empty[String]

  /** Times `f` under `key` (outermost occurrence only) and returns its result. */
  def time[T](key: String)(f: => T): T = {
    if (active.contains(key)) f
    else {
      active += key
      val t0 = System.nanoTime()
      try f
      finally { acc(key) += System.nanoTime() - t0; active -= key }
    }
  }

  /** Accumulated milliseconds for `key` (0 if never timed). */
  def ms(key: String): Double = acc(key) / 1e6
}

object Metrics {
  /** Part keys shared by RTCSharing and FullSharing. */
  val SharedData = "shared_data"
  val PreJoin    = "pre_join_rplus"
  val Remainder  = "remainder"

  /** A sink for callers that do not need timings. */
  def discard: Metrics = new Metrics
}
