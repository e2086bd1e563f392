package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Semi-naive transitive closure over an unlabeled edge relation `(s, d)`.
  *
  * This is the reference closure: [[repro.core.RpqEval.eval]] evaluates
  * `R+` with it (Lemma 1), and the tests check the shared structures of
  * RTCSharing and FullSharing against it. Neither sharing method calls it;
  * both build from [[repro.core.Rtc.compute]]'s driver pass. It computes
  * the delta iteration
  *
  * {{{
  *   TC_0 = E;  Δ_0 = E
  *   Δ_{i+1} = π_{Δ.s, E.d}(Δ_i ⋈_{Δ.d = E.s} E) − TC_i
  *   TC_{i+1} = TC_i ∪ Δ_{i+1}        until Δ empty
  * }}}
  *
  * Each round is eagerly `localCheckpoint`ed so lineage stays flat across
  * the unbounded number of iterations (bounded by the graph diameter).
  * The result follows Kleene-plus semantics: pairs connected by a path of
  * length >= 1; `(v, v)` appears only when `v` lies on a cycle.
  */
object TransitiveClosure {
  import GraphData.{Src, Dst}

  /** @param edges unlabeled edge relation with columns `(s, d)`
    * @return the transitive closure as a `(s, d)` pair relation
    */
  def of(edges: DataFrame): DataFrame = {
    val base = edges.select(Src, Dst).distinct().localCheckpoint()
    var tc = base
    var delta = base
    while (delta.limit(1).count() > 0) {
      val next = delta.alias("p")
        .join(base.alias("e"), col(s"p.$Dst") === col(s"e.$Src"))
        .select(col(s"p.$Src").as(Src), col(s"e.$Dst").as(Dst))
        .distinct()
        .except(tc)
        .localCheckpoint()
      delta = next
      tc = tc.union(next).localCheckpoint()
    }
    tc
  }
}
