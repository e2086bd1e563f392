package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** Strongly connected components of the edge-level reduced graph `G_R`
  * (paper §III-B, vertex-level reduction).
  *
  * The paper uses Tarjan's algorithm [14] on `G_R`; `G_R` is small by
  * construction (it is the *reduced* graph), so like the paper we run
  * Tarjan in a single memory space (the driver) after collecting the edge
  * relation.
  *
  * SCC ids are normalized to the minimum member VID so assignments are
  * deterministic.
  */
object Scc {
  import GraphData.{Src, Dst}

  /** Iterative (explicit stack) Tarjan — recursion-free so deep graphs do
    * not overflow the JVM stack.
    *
    * @return vertex -> SCC id (minimum member VID of the component)
    */
  def tarjan(vertices: Seq[Long], edges: Seq[(Long, Long)]): Map[Long, Long] = {
    val adj = edges.groupBy(_._1).map { case (s, es) => s -> es.map(_._2).toArray }
    val index = mutable.Map.empty[Long, Int]
    val lowlink = mutable.Map.empty[Long, Int]
    val onStack = mutable.Set.empty[Long]
    val stack = mutable.ArrayDeque.empty[Long]
    val assignment = mutable.Map.empty[Long, Long]
    var counter = 0

    // Work frame: (vertex, next-child cursor into adj(vertex)).
    val work = mutable.ArrayDeque.empty[(Long, Int)]

    for (root <- vertices if !index.contains(root)) {
      work.prepend((root, 0))
      index(root) = counter; lowlink(root) = counter; counter += 1
      stack.prepend(root); onStack += root
      while (work.nonEmpty) {
        val (v, cursor) = work.removeHead()
        val children = adj.getOrElse(v, Array.empty[Long])
        var i = cursor
        var descended = false
        while (i < children.length && !descended) {
          val w = children(i)
          if (!index.contains(w)) {
            // Descend: resume v at i+1 later, start w.
            work.prepend((v, i + 1))
            work.prepend((w, 0))
            index(w) = counter; lowlink(w) = counter; counter += 1
            stack.prepend(w); onStack += w
            descended = true
          } else {
            if (onStack(w)) lowlink(v) = math.min(lowlink(v), index(w))
            i += 1
          }
        }
        if (!descended) {
          if (lowlink(v) == index(v)) {
            // v is an SCC root: pop the component off the stack.
            val members = mutable.ArrayBuffer.empty[Long]
            var w = -1L
            while ({ w = stack.removeHead(); onStack -= w; members += w; w != v }) ()
            val id = members.min
            members.foreach(assignment(_) = id)
          }
          // Propagate lowlink to the parent frame, if any.
          work.headOption.foreach { case (parent, pc) =>
            work(0) = (parent, pc)
            lowlink(parent) = math.min(lowlink(parent), lowlink(v))
          }
        }
      }
    }
    assignment.toMap
  }

  /** Computes the SCC relation `SCC(V, S)` of an unlabeled `(s, d)` edge
    * relation as a DataFrame with columns `(v, scc)`.
    *
    * Vertices are taken from the edge endpoints (isolated vertices cannot
    * occur in `G_R`, whose vertex set is defined from its edges).
    */
  def assign(edges: DataFrame)(implicit spark: SparkSession): DataFrame = {
    import spark.implicits._
    val collected = edges.select(Src, Dst).distinct()
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    val vertices = collected.flatMap(e => Seq(e._1, e._2)).distinct
    tarjan(vertices, collected).toSeq.toDF("v", "scc")
  }

  /** Vertex-level reduction `G_R -> Ḡ_R`: maps each `G_R` edge to the edge
    * between the SCC-vertices of its endpoints. Intra-SCC edges become
    * self-loops (kept — they record that the SCC is cyclic, so `(s, s)`
    * belongs to the RTC); a trivial SCC without a self-loop contributes no
    * self-loop, so the RTC never fabricates `(v, v)` pairs.
    *
    * @param edges `G_R` edge relation `(s, d)`
    * @param scc   `(v, scc)` assignment from [[assign]]
    * @return condensed edge relation `(s, d)` over SCC ids
    */
  def condense(edges: DataFrame, scc: DataFrame): DataFrame =
    edges.alias("e")
      .join(scc.alias("cs"), col(s"e.$Src") === col("cs.v"))
      .join(scc.alias("cd"), col(s"e.$Dst") === col("cd.v"))
      .select(col("cs.scc").as(Src), col("cd.scc").as(Dst))
      .distinct()
}
