package repro.bench

import repro.SparkSpec
import repro.data.Datasets
import repro.harness.Experiments

/** Reproduces TABLE IV: statistics of the (stand-in) datasets.
  *
  * Prints measured |V|, |E|, |Σ| and average vertex degree per label next
  * to the paper's published sizes; asserts that the degree — the
  * experiments' controlled variable — matches the paper's within 10%.
  */
class Table4DatasetsBench extends SparkSpec {

  test("TABLE IV: dataset statistics") {
    val paperDegrees = Map("Yago2s" -> 0.02, "Robots" -> 0.52,
                           "Advogato" -> 2.61, "Youtube" -> 11.42)
    val stats = Datasets.all.map { spec =>
      val g = spec.load(spark)
      (spec, g.numVertices, g.numEdges, g.labels.size)
    }
    println(Experiments.renderTable4(stats))
    for ((spec, v, e, _) <- stats) {
      val deg = e.toDouble / (spec.numV.toDouble * spec.numLabels)
      val paper = paperDegrees(spec.name)
      assert(math.abs(deg - paper) / paper < 0.10,
        s"${spec.name}: degree $deg vs paper $paper")
      assert(v > 0 && e > 0)
    }
  }
}
