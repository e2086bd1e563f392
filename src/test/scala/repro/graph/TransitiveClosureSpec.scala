package repro.graph

import repro.{Oracle, SparkSpec, TestKit}

/** Semi-naive DataFrame transitive closure vs a driver-side BFS reference
  * and the DuckDB recursive-CTE oracle.
  */
class TransitiveClosureSpec extends SparkSpec {
  import spark.implicits._

  private def tcOf(edges: Seq[(Long, Long)]): Set[(Long, Long)] =
    TestKit.collectSet(TransitiveClosure.of(edges.toDF("s", "d")))

  test("empty edge set has empty closure") {
    assert(tcOf(Seq.empty) == Set.empty)
  }
  test("single edge") {
    assert(tcOf(Seq((1L, 2L))) == Set((1L, 2L)))
  }
  test("chain of three") {
    assert(tcOf(Seq((1L, 2L), (2L, 3L))) == Set((1L, 2L), (2L, 3L), (1L, 3L)))
  }
  test("self loop yields only (v, v)") {
    assert(tcOf(Seq((5L, 5L))) == Set((5L, 5L)))
  }
  test("two-cycle: every pair including reflexive ones") {
    assert(tcOf(Seq((1L, 2L), (2L, 1L))) ==
      Set((1L, 2L), (2L, 1L), (1L, 1L), (2L, 2L)))
  }
  test("triangle cycle closes completely") {
    val got = tcOf(Seq((1L, 2L), (2L, 3L), (3L, 1L)))
    assert(got == (for { a <- 1L to 3L; b <- 1L to 3L } yield (a, b)).toSet)
  }
  test("Kleene-plus semantics: no reflexive pair off-cycle") {
    val got = tcOf(Seq((1L, 2L), (2L, 3L)))
    assert(!got.contains((1L, 1L)) && !got.contains((3L, 3L)))
  }
  test("diamond DAG") {
    val got = tcOf(Seq((1L, 2L), (1L, 3L), (2L, 4L), (3L, 4L)))
    assert(got == Set((1L, 2L), (1L, 3L), (1L, 4L), (2L, 4L), (3L, 4L)))
  }
  test("duplicate input edges are harmless") {
    assert(tcOf(Seq((1L, 2L), (1L, 2L), (2L, 3L))) ==
      Set((1L, 2L), (2L, 3L), (1L, 3L)))
  }
  test("long chain (depth 20) closes in |V| choose 2 pairs") {
    val chain = (0L until 20L).map(i => (i, i + 1))
    val got = tcOf(chain)
    assert(got.size == 21 * 20 / 2)
  }
  test("Example 4: TC(G_{b·c}) over the paper's reduced edge set") {
    val grbc = Seq((2L, 4L), (2L, 6L), (3L, 5L), (4L, 2L), (5L, 3L))
    val expected = Set((2L, 2L), (2L, 4L), (2L, 6L), (3L, 3L), (3L, 5L),
      (4L, 2L), (4L, 4L), (4L, 6L), (5L, 3L), (5L, 5L))
    assert(tcOf(grbc) == expected)
  }

  for (seed <- 1 to 12)
    test(s"random graph matches driver BFS reference, seed $seed") {
      val edges = TestKit.randomEdges(numV = 30, numE = 60, seed = seed)
      assert(tcOf(edges) == TestKit.bruteTc(edges))
    }

  for (seed <- 1 to 6)
    test(s"random graph matches DuckDB recursive CTE, seed $seed") {
      val edges = TestKit.randomEdges(numV = 25, numE = 50, seed = 100 + seed)
      val df = edges.toDF("s", "d")
      Oracle.assertEquivalent(TransitiveClosure.of(df), TestKit.duckTcSql, "gr" -> df)
    }

  test("dense cyclic graph (every vertex on a cycle) closes to V×V") {
    val n = 10L
    val ring = (0L until n).map(i => (i, (i + 1) % n))
    val extra = Seq((0L, 5L), (3L, 8L))
    val got = tcOf(ring ++ extra)
    assert(got.size == (n * n).toInt)
  }
}
