package repro.perfbench

import repro.core.Rpq
import repro.data.{DatasetSpec, Datasets}

/** One RPQ of a workload.
  *
  * @param text  the query as a user writes it; parsed outside timed regions
  * @param batch `Some((pre, r, post))` when the query is the batch unit
  *              `pre · (r)+ · post` of single labels and a label chain `r`,
  *              which DuckDB checks; `None` for other shapes, which the
  *              driver-side path search checks
  */
final case class Query(text: String, batch: Option[(String, Seq[String], String)]) {
  lazy val rpq: Rpq = Rpq.parse(text)
}

/** A workload: a Table IV stand-in and the RPQs of one round, drawn from
  * the seed. Every round of a run issues the same RPQs in the same order.
  */
final case class Workload(name: String, dataset: DatasetSpec,
                          queries: (Seq[String], Long) => Seq[Query])

object Workloads {

  /** The query `text`, which must be a batch unit `pre · (r)+ · post`. */
  private def batchQuery(text: String): Query = Rpq.factors(Rpq.parse(text)) match {
    case Seq(Rpq.Lbl(pre), Rpq.Plus(r), Rpq.Lbl(post)) =>
      val chain = Rpq.factors(r).map {
        case Rpq.Lbl(l) => l
        case other      => throw new IllegalArgumentException(s"not a label chain: $other")
      }
      Query(text, Some((pre, chain, post)))
    case _ => throw new IllegalArgumentException(s"not a batch unit: $text")
  }

  /** A generator for `seed`. The seed is mixed first: the first draws of
    * `java.util.Random` from small consecutive seeds are nearly equal.
    */
  private def random(seed: Long) = new scala.util.Random(new java.util.SplittableRandom(seed).nextLong())

  /** Experiment-2 traffic: a set of `Pre·R+·Post` RPQs that share one
    * `R`, drawn as `QueryGen` draws them, with `Pre` and `Post` from the
    * seed. `R` is fixed: the build of its structure is most of a round, and
    * its cost varies with `R` by more than the bounds allow between seeds.
    * The first RPQ builds; the others hit.
    */
  val advogatoSets: Workload = Workload("advogato-sets", Datasets.Advogato, (labels, seed) => {
    val rnd = random(seed)
    def label(): String = labels(rnd.nextInt(labels.size))
    Seq.fill(2)(batchQuery(s"${label()}.(l0.l1)+.${label()}"))
  })

  /** RPQs outside the batch-unit template; `{a}`..`{d}` are labels drawn
    * from the seed. In turn: an alternation under `*` with an ε prefix (the
    * identity relation), a 4-clause DNF whose clauses share that closure,
    * and the closure's reordered twin, equal in language but not in text.
    * Both closures are over label chains of length 3, whose sparse `G_R`s
    * keep a build to about a hundred Spark jobs.
    */
  val ShapeTemplates: Seq[String] = Seq(
    "(l0.l1.l2|l2.l3.l0)*.{a}",
    "({a}|{b}).(l0.l1.l2|l2.l3.l0)+.({c}|{d})",
    "{b}.(l2.l3.l0|l0.l1.l2)+.{c}",
  )

  val robotsShapes: Workload = Workload("robots-shapes", Datasets.Robots, (labels, seed) => {
    val rnd = random(seed)
    val slot = Seq("a", "b", "c", "d").map(k => s"{$k}" -> labels(rnd.nextInt(labels.size)))
    ShapeTemplates.map(t => Query(slot.foldLeft(t) { case (q, (k, l)) => q.replace(k, l) }, None))
  })

  val all: Seq[Workload] = Seq(advogatoSets, robotsShapes)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
