package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.{GraphData, Scc}

/** The reduced transitive closure `RTC = TC(Ḡ_R)` plus the SCC relation it
  * is expressed over (paper §III-C).
  *
  * @param scc     relation `SCC(V, S)` as columns `(v, scc)` — every vertex
  *                of `G_R` with the SCC containing it
  * @param rtc     relation `R̄+_G(START_S, END_S)` as columns `(ss, es)` —
  *                the transitive closure of the condensed graph `Ḡ_R`
  * @param rtcSize number of pairs in the RTC (the paper's shared-data size
  *                for RTCSharing, Fig. 11)
  */
final case class RtcData(scc: DataFrame, rtc: DataFrame, rtcSize: Long)

object Rtc {
  import GraphData.{Src, Dst}

  /** Driver heap one build may take: a quarter of the JVM's maximum heap,
    * leaving the rest to Spark's blocks and to the collected `G_R`.
    * [[repro.baselines.FullCache]] broadcasts `R+_G` only within it too.
    */
  private[repro] def driverBudget: Long = Runtime.getRuntime.maxMemory / 4

  /** Bytes of one reach bitset per component for `n` components. */
  def reachBytes(n: Long): Long = n * ((n + 63) / 64) * 8

  /** Driver bytes per row of either relation until its DataFrame holds it:
    * the `(ss, es)` or `(v, scc)` tuple, and the encoded row the local
    * relation keeps.
    */
  private[repro] val BytesPerPair = 128L

  /** Fails with a message naming the sizes when `bytes` exceeds `budget`.
    *
    * @param grEdges    `|G_R|`, the distinct edges collected
    * @param components `n`, the SCCs of `G_R`
    * @param what       what the bytes would hold
    */
  def requireDriverMemory(grEdges: Long, components: Long, what: String,
                          bytes: Long, budget: Long): Unit =
    if (bytes > budget) throw new IllegalStateException(
      s"RTC build stopped: |G_R| = $grEdges edges in n = $components SCCs needs " +
        s"$bytes bytes for $what, over the driver budget of $budget bytes; " +
        "a larger driver heap raises the budget")

  /** `Compute_RTC` (Algorithm 1 line 11) in one driver pass over `G_R`.
    *
    * Collects the distinct edges of `G_R` and runs Tarjan on them
    * ([[Scc.collect]]). Tarjan pops the components in reverse topological
    * order, so when a component is reached in that order every component
    * it has an edge to already has its complete reach set: OR-ing those
    * sets in, one bitset per component, yields `TC(Ḡ_R)` in the same pass
    * (Purdom 1970; Nuutila 1995). A component reaches itself only if it
    * has an internal edge — more than one member, or a self-loop — so the
    * RTC never fabricates `(v, v)` pairs.
    *
    * Both relations are built on the driver as one local DataFrame each;
    * their sizes are checked against [[driverBudget]] before anything is
    * allocated for them. So every `RtcData` fits the driver budget, which
    * is why [[RtcCache]] can always join both relations by broadcast.
    *
    * @param rg the edge relation of `G_R`, i.e. `R_G` (`(s, d)` pairs)
    */
  def compute(rg: DataFrame)(implicit spark: SparkSession): RtcData = {
    import spark.implicits._
    val c = Scc.collect(rg)
    val n = c.count
    val budget = driverBudget
    requireDriverMemory(c.edges, n, s"$n reach bitsets", reachBytes(n), budget)
    val words = (n + 63) >>> 6
    val reach = Array.ofDim[Long](n, words)
    for (v <- c.popped) {
      val own = c.comp(v)
      val r = reach(own)
      for (k <- c.off(v) until c.off(v + 1)) {
        val d = c.comp(c.adj(k))
        val bit = 1L << (d & 63)
        if ((r(d >>> 6) & bit) == 0) {
          r(d >>> 6) |= bit
          // d == own is an internal edge; otherwise d popped earlier and
          // its reach is complete. A set bit means reach(d) is in already.
          if (d != own) { val rd = reach(d); for (i <- 0 until words) r(i) |= rd(i) }
        }
      }
    }
    val pairs = reach.iterator.map(_.iterator.map(java.lang.Long.bitCount(_).toLong).sum).sum
    val vertices = c.vertices.length
    requireDriverMemory(c.edges, n, s"$pairs RTC rows and $vertices SCC rows",
      (pairs + vertices) * BytesPerPair, budget)
    val rows = new Array[(Long, Long)](pairs.toInt)
    var next = 0
    for (s <- 0 until n; i <- 0 until words) {
      var w = reach(s)(i)
      while (w != 0) {
        val d = (i << 6) + java.lang.Long.numberOfTrailingZeros(w)
        rows(next) = (c.ids(s), c.ids(d)); next += 1
        w &= w - 1
      }
    }
    RtcData(c.relation.toDF("v", "scc"), rows.toSeq.toDF("ss", "es"), pairs)
  }

  /** Theorem 1: materializes `R+_G` from the RTC —
    * `π_{SSCC.V, ESCC.V}(ρ_SSCC(SCC) ⋈ R̄+_G ⋈ ρ_ESCC(SCC))`. The rows are
    * distinct because SCC member sets are disjoint. FullSharing builds its
    * `R+_G` this way; RTCSharing itself never expands the full closure.
    */
  def expand(data: RtcData): DataFrame =
    data.scc.alias("sscc")
      .join(data.rtc.alias("t"), col("sscc.scc") === col("t.ss"))
      .join(data.scc.alias("escc"), col("t.es") === col("escc.scc"))
      .select(col("sscc.v").as(Src), col("escc.v").as(Dst))
}
