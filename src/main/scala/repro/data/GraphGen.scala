package repro.data

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.graph.{GraphData, LabeledGraph}

/** Synthetic edge-labeled multigraph generators, deterministic in the seed.
  *
  * The paper's datasets are real graphs we cannot ship; the experiments'
  * controlled variable is the average vertex degree per label
  * `|E| / (|V|·|Σ|)` (§V-B1), which these uniform random graphs match
  * exactly by construction (see DESIGN.md §3 for the substitution
  * rationale). Labels are `l0 … l{k-1}`; `(s, label, d)` triples are
  * distinct, satisfying the data model's distinct-labels-per-pair rule.
  */
object GraphGen {
  import GraphData.{Src, Lbl, Dst}

  /** Uniform random multigraph.
    *
    * @param numV      number of vertices (VIDs `0 until numV`)
    * @param numE      target edge count; the result can fall short by the
    *                  few random collisions removed by `distinct`
    * @param numLabels alphabet size |Σ|
    */
  def random(spark: SparkSession, numV: Long, numE: Long, numLabels: Int,
             seed: Long): LabeledGraph = {
    val edges = spark.range(numE).select(
      (rand(seed) * numV).cast(LongType).as(Src),
      concat(lit("l"), (rand(seed + 1) * numLabels).cast(IntegerType)).as(Lbl),
      (rand(seed + 2) * numV).cast(LongType).as(Dst),
    ).distinct()
    LabeledGraph(edges)
  }
}
