package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.automaton.Nfa
import repro.core.Rpq
import repro.graph.{GraphData, LabeledGraph, Pairs}

/** NoSharing baseline: per-query automaton-guided traversal (Yakovets et
  * al. [5], paper §II-B), nothing shared between queries.
  *
  * The query is compiled to an ε-free NFA; evaluation is a product-graph
  * breadth-first traversal whose frontier is a DataFrame of
  * `(startV, curV, state)` triples, advanced by joining with the edge
  * relation and the transition relation each round. The visited set
  * implements the paper's duplicate-avoidance rule: a traversal terminates
  * when its end vertex was already visited in the same automaton state
  * from the same start vertex (Example 2).
  */
object NoSharing {
  import GraphData.{Src, Lbl, Dst}

  /** Evaluates `q` on `g` from every start vertex.
    *
    * @return the `(s, d)` pair relation `q_G`
    */
  def evaluate(g: LabeledGraph, q: Rpq)(implicit spark: SparkSession): DataFrame = {
    import spark.implicits._
    val nfa = Nfa.fromRpq(q)
    if (nfa.trans.isEmpty) {
      // Language is {ε} or ∅ — no labeled transition can ever fire.
      val identity = Pairs.identity(g.vertices)
      return if (nfa.acceptsEmpty) identity else identity.limit(0)
    }
    val trans = nfa.trans.toDF("q", "lab", "q2").localCheckpoint()

    // Seed: one traversal per vertex starting in the NFA start state, which
    // fires iff an out-edge's label has a transition from the start state.
    val startTrans = trans.filter(col("q") === nfa.start)
    var frontier = g.edges.alias("e")
      .join(startTrans.alias("t"), col(s"e.$Lbl") === col("t.lab"))
      .select(col(s"e.$Src").as("sv"), col(s"e.$Dst").as("cv"), col("t.q2").as("st"))
      .distinct()
      .localCheckpoint()
    var visited = frontier

    while (frontier.limit(1).count() > 0) {
      val advanced = frontier.alias("f")
        .join(g.edges.alias("e"), col("f.cv") === col(s"e.$Src"))
        .join(trans.alias("t"),
          col("f.st") === col("t.q") && col(s"e.$Lbl") === col("t.lab"))
        .select(col("f.sv").as("sv"), col(s"e.$Dst").as("cv"), col("t.q2").as("st"))
        .distinct()
      frontier = advanced.except(visited).localCheckpoint()
      visited = visited.union(frontier).localCheckpoint()
    }

    val accepted = visited
      .filter(col("st").isin(nfa.accepts.toSeq: _*))
      .select(col("sv").as(Src), col("cv").as(Dst))
      .distinct()
    if (nfa.acceptsEmpty) Pairs.union(accepted, Pairs.identity(g.vertices))
    else accepted
  }
}
