package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.automaton.Nfa
import repro.core.Rpq
import repro.graph.{GraphData, LabeledGraph}
import scala.collection.mutable

/** Driver-side reference implementations used as independent oracles for
  * the DataFrame algorithms, plus small deterministic inputs.
  */
object TestKit {
  import GraphData.{Src, Lbl, Dst}

  /** Collects a pair relation to a driver-side set. */
  def collectSet(df: DataFrame): Set[(Long, Long)] =
    df.select(Src, Dst).collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  /** Builds a graph from in-memory triples, applying `distinct` so the
    * edges are a set as [[LabeledGraph]] requires.
    */
  def fromTuples(spark: SparkSession, triples: Seq[(Long, String, Long)]): LabeledGraph = {
    import spark.implicits._
    LabeledGraph(triples.toDF(Src, Lbl, Dst).distinct())
  }

  /** The six-edge graph of the hand-checked cases. */
  val tinyTriples: Seq[(Long, String, Long)] = Seq(
    (1L, "a", 2L), (2L, "b", 3L), (3L, "c", 4L), (2L, "a", 4L),
    (4L, "b", 1L), (1L, "b", 3L))
  lazy val tiny: LabeledGraph = fromTuples(SparkSpec.shared, tinyTriples)

  /** All `(start, end)` pairs of paths matching `r` over in-memory edges —
    * NFA-product BFS with a visited set, entirely on the driver. The NFA
    * itself is validated against the Brzozowski matcher in AutomatonSpec,
    * so this is an independent check for all DataFrame evaluators.
    */
  def bruteEval(edges: Seq[(Long, String, Long)], r: Rpq): Set[(Long, Long)] = {
    val nfa = Nfa.fromRpq(r)
    val adj = edges.groupBy(_._1)
    val vertices = edges.flatMap(e => Seq(e._1, e._3)).distinct
    val out = mutable.Set.empty[(Long, Long)]
    if (nfa.acceptsEmpty) vertices.foreach(v => out += ((v, v)))
    val byLabel: Map[(Int, String), Seq[Int]] =
      nfa.trans.groupMap(t => (t._1, t._2))(_._3)
    for (s <- vertices) {
      val visited = mutable.Set.empty[(Long, Int)]
      val queue = mutable.ArrayDeque[(Long, Int)]((s, nfa.start))
      while (queue.nonEmpty) {
        val (v, q) = queue.removeHead()
        for {
          (_, lbl, d) <- adj.getOrElse(v, Seq.empty)
          q2 <- byLabel.getOrElse((q, lbl), Seq.empty)
          if visited.add((d, q2))
        } {
          if (nfa.accepts.contains(q2)) out += ((s, d))
          queue.append((d, q2))
        }
      }
    }
    out.toSet
  }

  /** Brute-force transitive closure (path length >= 1) by per-vertex BFS. */
  def bruteTc(edges: Seq[(Long, Long)]): Set[(Long, Long)] = {
    val adj = edges.groupBy(_._1).map { case (k, v) => k -> v.map(_._2).distinct }
    val vertices = edges.flatMap(e => Seq(e._1, e._2)).distinct
    val out = mutable.Set.empty[(Long, Long)]
    for (s <- vertices) {
      val seen = mutable.Set.empty[Long]
      val queue = mutable.ArrayDeque.empty[Long]
      adj.getOrElse(s, Seq.empty).foreach { d => if (seen.add(d)) queue.append(d) }
      while (queue.nonEmpty) {
        val v = queue.removeHead()
        out += ((s, v))
        adj.getOrElse(v, Seq.empty).foreach { d => if (seen.add(d)) queue.append(d) }
      }
    }
    out.toSet
  }

  /** Brute-force SCC assignment (min member id) via mutual reachability. */
  def bruteScc(edges: Seq[(Long, Long)]): Map[Long, Long] = {
    val tc = bruteTc(edges)
    val vertices = edges.flatMap(e => Seq(e._1, e._2)).distinct
    vertices.map { v =>
      val comp = vertices.filter(w =>
        w == v || (tc.contains((v, w)) && tc.contains((w, v))))
      v -> comp.min
    }.toMap
  }

  /** Deterministic random labeled edge list. */
  def randomTriples(numV: Int, numE: Int, numLabels: Int, seed: Long): Seq[(Long, String, Long)] = {
    val rnd = new scala.util.Random(seed)
    Seq.fill(numE)(
      (rnd.nextInt(numV).toLong, s"l${rnd.nextInt(numLabels)}", rnd.nextInt(numV).toLong)
    ).distinct
  }

  /** [[randomTriples]] with the labels `l0 … l3` renamed `a … d`. */
  def letterTriples(numV: Int, numE: Int, numLabels: Int, seed: Long): Seq[(Long, String, Long)] = {
    require(numLabels <= Letters.size, s"at most ${Letters.size} labels")
    randomTriples(numV, numE, numLabels, seed).map { case (s, l, d) => (s, Letters(l.drop(1).toInt), d) }
  }

  private val Letters = Seq("a", "b", "c", "d")

  /** Deterministic random unlabeled edge list. */
  def randomEdges(numV: Int, numE: Int, seed: Long): Seq[(Long, Long)] = {
    val rnd = new scala.util.Random(seed)
    Seq.fill(numE)((rnd.nextInt(numV).toLong, rnd.nextInt(numV).toLong)).distinct
  }

  /** Deterministic random RPQ over `labels` (closure-shapes included). */
  def randomRpq(labels: Seq[String], depth: Int, rnd: scala.util.Random): Rpq = {
    if (depth <= 0) Rpq.Lbl(labels(rnd.nextInt(labels.size)))
    else rnd.nextInt(6) match {
      case 0 | 1 => Rpq.Cat(randomRpq(labels, depth - 1, rnd), randomRpq(labels, depth - 1, rnd))
      case 2     => Rpq.Alt(randomRpq(labels, depth - 1, rnd), randomRpq(labels, depth - 1, rnd))
      case 3     => Rpq.Plus(randomRpq(labels, depth - 1, rnd))
      case 4     => Rpq.Star(randomRpq(labels, depth - 1, rnd))
      case _     => Rpq.Lbl(labels(rnd.nextInt(labels.size)))
    }
  }

  /** DuckDB SQL computing the transitive closure of table `gr(s, d)` as
    * columns `(s, d)` — the recursive-CTE oracle for semi-naive TC.
    */
  val duckTcSql: String =
    """WITH RECURSIVE tc AS (
      |  SELECT s, d FROM gr
      |  UNION
      |  SELECT tc.s, gr.d FROM tc JOIN gr ON tc.d = gr.s
      |) SELECT s AS s, d AS d FROM tc""".stripMargin

  /** DuckDB SQL evaluating the batch unit `pre · (r)+ · post` over table
    * `edges(s, label, d)` where `pre`/`post` are single labels and `r` is
    * a label concatenation. Output columns `(s, d)`.
    */
  def duckBatchUnitSql(pre: String, r: Seq[String], post: String): String = {
    val rJoin = r.zipWithIndex.map { case (l, i) => s"e$i" }
    val joins = rJoin.zipWithIndex.map { case (a, i) =>
      if (i == 0) s"edges $a" else s"JOIN edges $a ON ${rJoin(i - 1)}.d = $a.s"
    }.mkString(" ")
    val labelPreds = r.zipWithIndex.map { case (l, i) => s"e$i.label = '$l'" }.mkString(" AND ")
    s"""WITH RECURSIVE
       | rg AS (SELECT DISTINCT e0.s AS s, ${rJoin.last}.d AS d FROM $joins WHERE $labelPreds),
       | tc AS (SELECT s, d FROM rg UNION SELECT tc.s, rg.d FROM tc JOIN rg ON tc.d = rg.s),
       | pre AS (SELECT DISTINCT s, d FROM edges WHERE label = '$pre'),
       | post AS (SELECT DISTINCT s, d FROM edges WHERE label = '$post')
       |SELECT DISTINCT pre.s AS s, post.d AS d
       |FROM pre JOIN tc ON pre.d = tc.s JOIN post ON tc.d = post.s""".stripMargin
  }
}
