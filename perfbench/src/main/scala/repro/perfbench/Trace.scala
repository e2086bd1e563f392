package repro.perfbench

import scala.collection.mutable

/** One layer call of the traced run.
  *
  * @param parent id of the enclosing span, or -1
  * @param query  index of the RPQ in the round the call served
  * @param attrs  counts recorded at the call: rows out, Spark jobs, ...
  */
final case class Span(id: Int, name: String, parent: Int, query: Int,
                      startNs: Long, endNs: Long, attrs: Map[String, Double]) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Records spans in memory; each span's Spark jobs run under a job group
  * of its own, so `jobs`, `tasks`, `shuffle_mb` and `driver_ms` are the
  * span's own work.
  */
final class Tracer(counters: SparkCounters) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  /** Runs `f` as span `name`. `attrs` runs after the span has closed, so
    * counting its output is not charged to the span.
    */
  def span[T](name: String, query: Int)(f: => T)(attrs: T => Seq[(String, Double)]): T = {
    val id = nextId; nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    val result = try counters.under(s"span-$id")(f) finally open = open.tail
    val t1 = System.nanoTime()
    val work = counters.work(Seq(s"span-$id"))
    val base = Seq(
      "jobs" -> work.jobs.toDouble,
      "tasks" -> work.tasks.toDouble,
      "shuffle_mb" -> work.shuffleBytes / 1e6,
      "driver_ms" -> math.max(0.0, (t1 - t0) / 1e6 - work.jobMs),
    )
    done += Span(id, name, parent, query, t0, t1, (base ++ counters.under("probe")(attrs(result))).toMap)
    result
  }

  def spans: Seq[Span] = done.toSeq

  /** Sum over spans named `name` of `attr` (`"ms"` is the duration). */
  def total(name: String, attr: String): Double =
    done.iterator.filter(_.name == name)
      .map(s => if (attr == "ms") s.ms else s.attrs.getOrElse(attr, 0.0)).sum

  def max(name: String, attr: String): Double =
    done.iterator.filter(_.name == name).map(_.attrs.getOrElse(attr, 0.0)).maxOption.getOrElse(0.0)

  def toJson: String = done.map { s =>
    val attrs = s.attrs.toSeq.sortBy(_._1).map { case (k, v) => s""""$k": $v""" }.mkString(", ")
    s"""{"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, "query": ${s.query}, """ +
      s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "attrs": {$attrs}}"""
  }.mkString("[\n", ",\n", "\n]\n")
}
