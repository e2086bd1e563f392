package repro.graph

import repro.{SparkSpec, TestKit}

/** SCC computation: iterative Tarjan vs brute-force mutual reachability,
  * and condensation rules of the vertex-level reduction (paper §III-B).
  */
class SccSpec extends SparkSpec {
  import spark.implicits._

  private implicit val s: org.apache.spark.sql.SparkSession = spark

  /** @return vertex -> SCC id (minimum member VID of the component) */
  private def tarjan(vertices: Seq[Long], edges: Seq[(Long, Long)]): Map[Long, Long] =
    Scc.components(vertices, edges).relation.toMap

  private def tarjanOf(edges: Seq[(Long, Long)]): Map[Long, Long] =
    tarjan(edges.flatMap(e => Seq(e._1, e._2)).distinct, edges)

  test("single vertex self-loop forms its own SCC") {
    assert(tarjanOf(Seq((1L, 1L))) == Map(1L -> 1L))
  }
  test("acyclic chain: all trivial SCCs") {
    assert(tarjanOf(Seq((1L, 2L), (2L, 3L))) == Map(1L -> 1L, 2L -> 2L, 3L -> 3L))
  }
  test("two-cycle merges into one SCC with min-member id") {
    assert(tarjanOf(Seq((3L, 7L), (7L, 3L))) == Map(3L -> 3L, 7L -> 3L))
  }
  test("Example 5: SCCs of G_{b·c} are {2,4}, {6}, {3,5}") {
    val grbc = Seq((2L, 4L), (2L, 6L), (3L, 5L), (4L, 2L), (5L, 3L))
    assert(tarjanOf(grbc) == Map(2L -> 2L, 4L -> 2L, 6L -> 6L, 3L -> 3L, 5L -> 3L))
  }
  test("two separate cycles stay separate") {
    val got = tarjanOf(Seq((1L, 2L), (2L, 1L), (3L, 4L), (4L, 3L)))
    assert(got == Map(1L -> 1L, 2L -> 1L, 3L -> 3L, 4L -> 3L))
  }
  test("cycle with a tail") {
    val got = tarjanOf(Seq((1L, 2L), (2L, 3L), (3L, 1L), (3L, 4L)))
    assert(got == Map(1L -> 1L, 2L -> 1L, 3L -> 1L, 4L -> 4L))
  }
  test("deep chain does not overflow the stack (iterative Tarjan)") {
    val chain = (0L until 20000L).map(i => (i, i + 1))
    val got = tarjan((0L to 20000L), chain)
    assert(got.size == 20001 && got.forall { case (v, s) => v == s })
  }
  test("deep cycle collapses to one SCC (iterative Tarjan)") {
    val n = 20000L
    val ring = (0L until n).map(i => (i, (i + 1) % n))
    val got = tarjan((0L until n), ring)
    assert(got.values.toSet == Set(0L))
  }

  for (seed <- 1 to 12)
    test(s"Tarjan matches brute-force mutual reachability, seed $seed") {
      val edges = TestKit.randomEdges(numV = 25, numE = 45, seed = 200 + seed)
      assert(tarjanOf(edges) == TestKit.bruteScc(edges))
    }

  test("Scc.assign produces the (v, scc) relation of the collected graph") {
    val edges = Seq((2L, 4L), (2L, 6L), (3L, 5L), (4L, 2L), (5L, 3L)).toDF("s", "d")
    val got = Scc.assign(edges).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(got == Map(2L -> 2L, 4L -> 2L, 6L -> 6L, 3L -> 3L, 5L -> 3L))
  }

  // ------------------------------------------------------------ condense

  test("Example 5: condensation of G_{b·c} has the paper's three edges") {
    val grbc = Seq((2L, 4L), (2L, 6L), (3L, 5L), (4L, 2L), (5L, 3L)).toDF("s", "d")
    val scc = Scc.assign(grbc)
    val got = TestKit.collectSet(Scc.condense(grbc, scc))
    // SCC ids are min members: s0 = {2,4} -> 2, s1 = {6} -> 6, s2 = {3,5} -> 3.
    assert(got == Set((2L, 2L), (2L, 6L), (3L, 3L)))
  }
  test("condense keeps self-loop for cyclic SCC only") {
    val edges = Seq((1L, 2L), (2L, 1L), (2L, 3L)).toDF("s", "d")
    val got = TestKit.collectSet(Scc.condense(edges, Scc.assign(edges)))
    assert(got == Set((1L, 1L), (1L, 3L)))
  }
  test("condense of a DAG never introduces self-loops") {
    val edges = Seq((1L, 2L), (2L, 3L), (1L, 3L)).toDF("s", "d")
    val got = TestKit.collectSet(Scc.condense(edges, Scc.assign(edges)))
    assert(got.forall { case (a, b) => a != b })
  }
  test("condensation is always acyclic apart from self-loops") {
    for (seed <- 1 to 5) {
      val edges = TestKit.randomEdges(30, 70, 300 + seed).toDF("s", "d")
      val cond = TestKit.collectSet(Scc.condense(edges, Scc.assign(edges)))
      val proper = cond.filter { case (a, b) => a != b }.toSeq
      val tc = TestKit.bruteTc(proper)
      assert(tc.forall { case (a, b) => !(a == b) },
        "proper condensation edges must form a DAG")
    }
  }
}
