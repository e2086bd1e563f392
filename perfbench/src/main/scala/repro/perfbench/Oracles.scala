package repro.perfbench

import java.sql.{Connection, DriverManager}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.automaton.Nfa
import repro.graph.GraphData.{Dst, Src}
import scala.collection.mutable

/** A pair relation summarized by its row count, distinct-row count and two
  * order-independent sums over its pairs. Spark, DuckDB and the driver
  * compute the same sums, so a result is checked without collecting it.
  * Vertex ids stay below 10^5, so no term overflows a Long.
  */
final case class Fingerprint(rows: Long, distinct: Long, h1: Long, h2: Long) {
  def sameSet(o: Fingerprint): Boolean = distinct == o.distinct && h1 == o.h1 && h2 == o.h2
}

object Fingerprint {
  private val P = 1000000007L

  def of(df: DataFrame): Fingerprint = {
    val s = col(Src); val d = col(Dst)
    val r = df.agg(
      count(lit(1)),
      countDistinct(s, d),
      coalesce(sum(pmod((s * 7919 + d) * (s * 104729 + d), lit(P))), lit(0L)),
      coalesce(sum(s * 1009 + d), lit(0L)),
    ).head()
    Fingerprint(r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3))
  }

  def of(pairs: Iterable[(Long, Long)]): Fingerprint = {
    var h1 = 0L; var h2 = 0L; var n = 0L
    for ((s, d) <- pairs) { n += 1; h1 += ((s * 7919 + d) * (s * 104729 + d)) % P; h2 += s * 1009 + d }
    Fingerprint(n, n, h1, h2)
  }

  /** SQL over a `(s, d)` relation `rel` that yields the same four values. */
  def sql(rel: String): String =
    s"""SELECT count(*), count(DISTINCT (s, d)),
       |  CAST(coalesce(sum(((s * 7919 + d) * (s * 104729 + d)) % $P), 0) AS BIGINT),
       |  CAST(coalesce(sum(s * 1009 + d), 0) AS BIGINT)
       |FROM $rel""".stripMargin
}

/** DuckDB recursive SQL for batch-unit RPQs `pre · (r)+ · post`, computed
  * apart from Spark. The closure of each distinct `r` is built once.
  */
final class DuckOracle(edges: Seq[(Long, String, Long)]) extends AutoCloseable {
  Class.forName("org.duckdb.DuckDBDriver")
  private val conn: Connection = DriverManager.getConnection("jdbc:duckdb:")
  private val closures = mutable.Map.empty[Seq[String], String]

  exec("SET threads = 2")
  exec("SET memory_limit = '1GB'")
  exec("CREATE TABLE edges (s BIGINT, label VARCHAR, d BIGINT)")
  edges.grouped(2000).foreach { chunk =>
    exec("INSERT INTO edges VALUES " +
      chunk.map { case (s, l, d) => s"($s, '$l', $d)" }.mkString(", "))
  }

  private def exec(sql: String): Unit = {
    val st = conn.createStatement()
    try st.execute(sql) finally st.close()
  }

  private def closure(r: Seq[String]): String = closures.getOrElseUpdate(r, {
    val name = s"tc${closures.size}"
    val joins = r.indices.map { i =>
      if (i == 0) "edges e0" else s"JOIN edges e$i ON e${i - 1}.d = e$i.s"
    }.mkString(" ")
    val labels = r.zipWithIndex.map { case (l, i) => s"e$i.label = '$l'" }.mkString(" AND ")
    exec(
      s"""CREATE TABLE $name AS WITH RECURSIVE
         | rg AS (SELECT DISTINCT e0.s AS s, e${r.size - 1}.d AS d FROM $joins WHERE $labels),
         | tc AS (SELECT s, d FROM rg UNION SELECT tc.s, rg.d FROM tc JOIN rg ON tc.d = rg.s)
         |SELECT s, d FROM tc""".stripMargin)
    name
  })

  def eval(pre: String, r: Seq[String], post: String): Fingerprint = {
    val tc = closure(r)
    val st = conn.createStatement()
    try {
      val rs = st.executeQuery(Fingerprint.sql(
        s"""(SELECT DISTINCT p.s AS s, q.d AS d
           | FROM edges p JOIN $tc t ON p.d = t.s JOIN edges q ON t.d = q.s
           | WHERE p.label = '$pre' AND q.label = '$post')""".stripMargin))
      rs.next()
      Fingerprint(rs.getLong(1), rs.getLong(2), rs.getLong(3), rs.getLong(4))
    } finally st.close()
  }

  override def close(): Unit = conn.close()
}

/** Driver-side path search: BFS over the product of the graph and the RPQ's
  * automaton. The vertex set is every edge endpoint, as in the evaluators,
  * so an RPQ that accepts ε relates each such vertex to itself.
  */
final class PathSearch(edges: Seq[(Long, String, Long)]) {
  private val out = edges.groupBy(_._1)
  private val vertices = edges.flatMap(e => Seq(e._1, e._3)).distinct

  def eval(text: String): Fingerprint = {
    val nfa = Nfa.fromRpq(repro.core.Rpq.parse(text))
    val step = nfa.trans.groupMap(t => (t._1, t._2))(_._3)
    val result = mutable.Set.empty[(Long, Long)]
    if (nfa.acceptsEmpty) vertices.foreach(v => result += ((v, v)))
    for (s <- vertices) {
      val seen = mutable.Set((s, nfa.start))
      val queue = mutable.ArrayDeque((s, nfa.start))
      while (queue.nonEmpty) {
        val (v, q) = queue.removeHead()
        for ((_, l, w) <- out.getOrElse(v, Nil); q2 <- step.getOrElse((q, l), Nil) if seen.add((w, q2))) {
          if (nfa.accepts(q2)) result += ((s, w))
          queue.append((w, q2))
        }
      }
    }
    Fingerprint.of(result)
  }
}
