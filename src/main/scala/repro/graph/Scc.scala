package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Strongly connected components of the edge-level reduced graph `G_R`
  * (paper §III-B, vertex-level reduction).
  *
  * The paper uses Tarjan's algorithm [14] on `G_R`; `G_R` is small by
  * construction (it is the *reduced* graph), so like the paper we run
  * Tarjan in a single memory space (the driver) after collecting the edge
  * relation. [[repro.core.Rtc.compute]] continues the same pass over the
  * components Tarjan pops to get the RTC; [[assign]] is its `SCC(V, S)`
  * half on its own.
  *
  * SCC ids are normalized to the minimum member VID so assignments are
  * deterministic.
  */
object Scc {
  import GraphData.{Src, Dst}

  /** A directed graph over vertex indices `0 until vertices.length` with
    * its SCCs, as one Tarjan pass leaves them.
    *
    * @param vertices the distinct vertex ids, ascending; index `i` is
    *                 vertex `vertices(i)`
    * @param off      successors of `i` are `adj(off(i) until off(i + 1))`
    * @param comp     the component of each vertex index, numbered in the
    *                 order Tarjan pops the components. A component pops
    *                 only after every component it reaches, so every edge
    *                 `u -> w` has `comp(w) <= comp(u)`: the numbering is a
    *                 reverse topological order of the condensation.
    * @param popped   vertex indices in the order Tarjan popped them, so the
    *                 members of each component are contiguous and the
    *                 components come in `comp` order
    * @param ids      the SCC id (minimum member VID) of each component
    */
  final class Components private[Scc] (
      val vertices: Array[Long], val off: Array[Int], val adj: Array[Int],
      val comp: Array[Int], val popped: Array[Int], val ids: Array[Long]) {

    /** Number of components. */
    def count: Int = ids.length

    /** Number of edges (after the caller's deduplication). */
    def edges: Int = adj.length

    /** The relation `SCC(V, S)` as `(v, scc)` rows. */
    def relation: Seq[(Long, Long)] =
      vertices.indices.map(i => (vertices(i), ids(comp(i))))
  }

  /** Iterative (explicit stack) Tarjan — recursion-free so deep graphs do
    * not overflow the JVM stack.
    *
    * @param vertices every vertex; each edge endpoint must be one of them
    */
  def components(vertices: Seq[Long], edges: Seq[(Long, Long)]): Components = {
    val vs = vertices.distinct.toArray.sorted
    val n = vs.length
    def indexOf(v: Long): Int = {
      val i = java.util.Arrays.binarySearch(vs, v)
      require(i >= 0, s"edge endpoint $v is not among the vertices")
      i
    }
    // Compressed adjacency: successors of i at adj(off(i) until off(i + 1)).
    val off = new Array[Int](n + 1)
    val from = edges.map(e => indexOf(e._1)).toArray
    val to = edges.map(e => indexOf(e._2)).toArray
    from.foreach(u => off(u + 1) += 1)
    for (i <- 0 until n) off(i + 1) += off(i)
    val adj = new Array[Int](to.length)
    val fill = off.clone()
    for (k <- from.indices) { adj(fill(from(k))) = to(k); fill(from(k)) += 1 }

    val index = Array.fill(n)(-1)
    val lowlink = new Array[Int](n)
    val onStack = new Array[Boolean](n)
    val stack = new Array[Int](n)
    var sp = 0
    // Work frames: a vertex and the cursor to its next unvisited successor.
    val work = new Array[Int](n)
    val cursor = new Array[Int](n)
    var wp = 0
    val comp = new Array[Int](n)
    val popped = new Array[Int](n)
    var np = 0
    var comps = 0
    var counter = 0
    def visit(v: Int): Unit = {
      index(v) = counter; lowlink(v) = counter; counter += 1
      stack(sp) = v; sp += 1; onStack(v) = true
      cursor(v) = off(v)
      work(wp) = v; wp += 1
    }

    for (root <- 0 until n if index(root) < 0) {
      visit(root)
      while (wp > 0) {
        val v = work(wp - 1)
        if (cursor(v) < off(v + 1)) {
          val w = adj(cursor(v))
          cursor(v) += 1
          if (index(w) < 0) visit(w)
          else if (onStack(w)) lowlink(v) = math.min(lowlink(v), index(w))
        } else {
          wp -= 1
          if (lowlink(v) == index(v)) {
            // v is an SCC root: pop the component off the stack.
            var w = -1
            while (w != v) {
              sp -= 1; w = stack(sp); onStack(w) = false
              comp(w) = comps; popped(np) = w; np += 1
            }
            comps += 1
          }
          // Propagate lowlink to the parent frame, if any.
          if (wp > 0) {
            val parent = work(wp - 1)
            lowlink(parent) = math.min(lowlink(parent), lowlink(v))
          }
        }
      }
    }
    val ids = Array.fill(comps)(Long.MaxValue)
    for (i <- 0 until n) ids(comp(i)) = math.min(ids(comp(i)), vs(i))
    new Components(vs, off, adj, comp, popped, ids)
  }

  /** Collects the distinct edges of an unlabeled `(s, d)` edge relation and
    * runs [[components]] on them. Vertices are taken from the edge
    * endpoints (isolated vertices cannot occur in `G_R`, whose vertex set
    * is defined from its edges).
    */
  def collect(edges: DataFrame): Components = {
    val collected = edges.select(Src, Dst).distinct()
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    components(collected.flatMap(e => Seq(e._1, e._2)), collected)
  }

  /** Computes the SCC relation `SCC(V, S)` of an unlabeled `(s, d)` edge
    * relation as a DataFrame with columns `(v, scc)`.
    */
  def assign(edges: DataFrame)(implicit spark: SparkSession): DataFrame = {
    import spark.implicits._
    collect(edges).relation.toDF("v", "scc")
  }

  /** Vertex-level reduction `G_R -> Ḡ_R` in Spark: maps each `G_R` edge to
    * the edge between the SCC-vertices of its endpoints. Intra-SCC edges
    * become self-loops (kept — they record that the SCC is cyclic, so
    * `(s, s)` belongs to the RTC); a trivial SCC without a self-loop
    * contributes no self-loop, so the RTC never fabricates `(v, v)` pairs.
    * [[repro.core.Rtc.compute]] applies the same rule on the driver; this
    * relational form is kept for the tests and the benchmark's traced run.
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
