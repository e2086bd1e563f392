package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.Rpq

/** Graph generators, dataset specs (Table IV stand-ins), and the query
  * workload generator (§V-A).
  */
class DataSpec extends SparkSpec {

  // ------------------------------------------------------------ GraphGen

  test("random graph is deterministic in the seed") {
    val a = GraphGen.random(spark, 100, 300, 3, seed = 42).edges.collect().toSet
    val b = GraphGen.random(spark, 100, 300, 3, seed = 42).edges.collect().toSet
    assert(a == b)
  }
  test("different seeds give different graphs") {
    val a = GraphGen.random(spark, 100, 300, 3, seed = 1).edges.collect().toSet
    val b = GraphGen.random(spark, 100, 300, 3, seed = 2).edges.collect().toSet
    assert(a != b)
  }
  test("vertex ids stay in range") {
    val g = GraphGen.random(spark, 50, 200, 3, seed = 7)
    val rows = g.edges.collect()
    assert(rows.forall(r => r.getLong(0) >= 0 && r.getLong(0) < 50 &&
      r.getLong(2) >= 0 && r.getLong(2) < 50))
  }
  test("labels come from the l0..l{k-1} alphabet") {
    val g = GraphGen.random(spark, 50, 200, 4, seed = 7)
    assert(g.labels.toSet.subsetOf((0 until 4).map(i => s"l$i").toSet))
  }
  test("edge triples are distinct (multigraph with distinct labels per pair)") {
    val g = GraphGen.random(spark, 20, 500, 2, seed = 9)
    val rows = g.edges.collect().map(r => (r.getLong(0), r.getString(1), r.getLong(2)))
    assert(rows.length == rows.distinct.length)
  }
  test("edge count is close to the target (collision loss < 5%)") {
    val g = GraphGen.random(spark, 1000, 5000, 4, seed = 3)
    val n = g.numEdges
    assert(n > 4750 && n <= 5000, s"got $n")
  }

  // ------------------------------------------------------------ Datasets

  for (spec <- Datasets.all) {
    test(s"dataset ${spec.name}: generated shape matches the spec") {
      val g = spec.load(spark)
      val v = g.numVertices
      val e = g.numEdges
      assert(e <= spec.numE && e > (spec.numE * 0.95).toLong,
        s"|E|=$e vs target ${spec.numE}")
      assert(v <= spec.numV, s"|V|=$v vs ${spec.numV}")
      assert(g.labels.size <= spec.numLabels)
    }
    test(s"dataset ${spec.name}: degree per label matches the paper's (±15%)") {
      val g = spec.load(spark)
      val measured = g.numEdges.toDouble / (spec.numV.toDouble * spec.numLabels)
      assert(math.abs(measured - spec.degreePerLabel) / spec.degreePerLabel < 0.15,
        s"measured $measured vs target ${spec.degreePerLabel}")
    }
  }
  test("Table IV order is ascending degree per label") {
    val degs = Datasets.all.map(_.degreePerLabel)
    assert(degs == degs.sorted)
  }
  test("paper degrees are reproduced by the stand-in shapes") {
    assert(math.abs(Datasets.Yago2s.degreePerLabel - 0.02) < 0.005)
    assert(math.abs(Datasets.Robots.degreePerLabel - 0.52) < 0.01)
    assert(math.abs(Datasets.Advogato.degreePerLabel - 2.61) < 0.01)
    assert(math.abs(Datasets.Youtube.degreePerLabel - 11.42) < 0.01)
  }

  // ------------------------------------------------------------ QueryGen

  private val labels = Seq("l0", "l1", "l2")

  test("generate is deterministic in the seed") {
    val a = QueryGen.generate(labels, 2, 10, seed = 77)
    val b = QueryGen.generate(labels, 2, 10, seed = 77)
    assert(a.map(_.r) == b.map(_.r))
    assert(a.map(_.queries) == b.map(_.queries))
  }
  test("small consecutive seeds do not all draw the same first R") {
    val firsts = (1 to 5).map(seed =>
      QueryGen.generate(Seq("l0", "l1", "l2", "l3"), 1, 10, seed).head.r)
    assert(firsts.distinct.size > 1, s"seeds 1-5 all start with ${firsts.head}")
  }
  test("generates setsPerLength sets for each R length 1..3") {
    val sets = QueryGen.generate(labels, 2, 10, seed = 1)
    assert(sets.size == 6)
    assert(sets.map(_.rLength).sorted == Seq(1, 1, 2, 2, 3, 3))
  }
  test("R is a closure-free label concatenation") {
    for (set <- QueryGen.generate(labels, 3, 10, seed = 2)) {
      assert(!set.r.hasClosure)
      assert(Rpq.factors(set.r).forall(_.isInstanceOf[Rpq.Lbl]))
    }
  }
  test("queries are batch units Pre·R+·Post with single-label Pre/Post") {
    for (set <- QueryGen.generate(labels, 2, 10, seed = 3); q <- set.queries) {
      val bu = Rpq.decompose(q)
      assert(bu.typ.contains('+'))
      assert(bu.r == set.r)
      assert(bu.pre.isInstanceOf[Rpq.Lbl] && bu.post.isInstanceOf[Rpq.Lbl])
    }
  }
  test("each set carries maxQueries queries (nested subsets by take)") {
    val sets = QueryGen.generate(labels, 1, 10, seed = 4)
    assert(sets.forall(_.queries.size == 10))
  }
  test("labels used in queries come from the alphabet") {
    for (set <- QueryGen.generate(labels, 2, 10, seed = 5); q <- set.queries) {
      def labelsOf(r: Rpq): Set[String] = r match {
        case Rpq.Lbl(l)    => Set(l)
        case Rpq.Cat(a, b) => labelsOf(a) ++ labelsOf(b)
        case Rpq.Alt(a, b) => labelsOf(a) ++ labelsOf(b)
        case Rpq.Plus(x)   => labelsOf(x)
        case Rpq.Star(x)   => labelsOf(x)
        case Rpq.Eps       => Set.empty
      }
      assert(labelsOf(q).subsetOf(labels.toSet))
    }
  }
  test("generate rejects an empty alphabet") {
    intercept[IllegalArgumentException](QueryGen.generate(Seq.empty, 1, 10, 0))
  }
}
