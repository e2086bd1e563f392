package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** An edge-labeled, directed multigraph `G = (V, E, f, Σ, l)` (paper §II-A).
  *
  * Edges are a DataFrame with columns `(s: Long, label: String, d: Long)`
  * and are a set of triples: no `(s, label, d)` occurs twice. Multiple
  * edges between a vertex pair are allowed but must carry distinct labels.
  * [[repro.data.GraphGen.random]] applies `distinct`.
  *
  * @param edges edge relation; callers should `materialize` graphs that are
  *              reused across many queries so Spark does not recompute the
  *              (possibly random) generator lineage.
  */
final case class LabeledGraph(edges: DataFrame) {

  /** All vertices incident to at least one edge, as a single column `v`. */
  def vertices: DataFrame =
    edges.select(col(GraphData.Src).as("v"))
      .union(edges.select(col(GraphData.Dst).as("v")))
      .distinct()

  /** The label alphabet Σ, collected to the driver (always small). */
  def labels: Seq[String] =
    edges.select(GraphData.Lbl).distinct().collect().map(_.getString(0)).sorted.toSeq

  def numVertices: Long = vertices.count()
  def numEdges: Long = edges.count()

  /** Eagerly materializes the edge relation and truncates lineage. */
  def materialize: LabeledGraph = LabeledGraph(edges.localCheckpoint())
}

object GraphData {
  /** Canonical column names shared by every relation in the repo. */
  val Src = "s"
  val Lbl = "label"
  val Dst = "d"
}

/** Binary relations of vertex pairs `(s, d)` — the currency of RPQ results.
  *
  * `R_G(START_V, END_V)` in the paper's relational notation is a `Pairs`
  * DataFrame here; all composition helpers deduplicate so relations stay
  * sets, matching Definition 2.
  */
object Pairs {
  import GraphData.{Src, Dst}

  /** Identity relation `{(v, v)}` over a one-column `v` vertex frame. */
  def identity(vertices: DataFrame): DataFrame =
    vertices.select(col("v").as(Src), col("v").as(Dst))

  /** Relational composition `π_{a.s, b.d}(a ⋈_{a.d = b.s} b)`, deduplicated
    * (Lemma 4 of the paper).
    */
  def compose(a: DataFrame, b: DataFrame): DataFrame =
    a.alias("l").join(b.alias("r"), col(s"l.$Dst") === col(s"r.$Src"))
      .select(col(s"l.$Src").as(Src), col(s"r.$Dst").as(Dst))
      .distinct()

  /** Set union of two pair relations. */
  def union(a: DataFrame, b: DataFrame): DataFrame =
    a.select(Src, Dst).unionByName(b.select(Src, Dst)).distinct()
}
