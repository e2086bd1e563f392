package repro.data

import repro.core.Rpq

/** Synthetic multiple-RPQ workloads (paper §V-A).
  *
  * Each RPQ is a batch unit `Pre · R+ · Post` where `Pre`/`Post` are single
  * labels and `R` is a label concatenation of length 1–3. A *multiple RPQ
  * set* is built per `R`; sets of k RPQs are nested ("a larger multiple
  * RPQ set contains smaller multiple RPQ sets"), so `queries.take(k)`
  * yields the paper's k-RPQ set. Deterministic in the seed.
  */
object QueryGen {

  /** One multiple-RPQ set: the common sub-query `R` and the (max-size)
    * ordered list of batch-unit RPQs sharing `R+`.
    */
  final case class RpqSet(r: Rpq, queries: Seq[Rpq]) {
    def rLength: Int = Rpq.factors(r).size
  }

  /** Generates `setsPerLength` sets for each `R` length in 1..3 (the paper
    * uses 30 per length; benches default lower — see DESIGN.md §4).
    *
    * @param labels     the dataset's alphabet
    * @param maxQueries maximum RPQs per set (paper: 10)
    */
  def generate(labels: Seq[String], setsPerLength: Int, maxQueries: Int,
               seed: Long): Seq[RpqSet] = {
    require(labels.nonEmpty, "empty alphabet")
    // Mix the seed first: the first draws of `java.util.Random` from small
    // consecutive seeds are nearly equal.
    val rnd = new scala.util.Random(new java.util.SplittableRandom(seed).nextLong())
    def label(): Rpq = Rpq.Lbl(labels(rnd.nextInt(labels.size)))
    for {
      len <- 1 to 3
      _ <- 1 to setsPerLength
    } yield {
      val r = Rpq.cat(Seq.fill(len)(label()))
      val queries = Seq.fill(maxQueries)(
        Rpq.Cat(label(), Rpq.Cat(Rpq.Plus(r), label()))
      )
      RpqSet(r, queries)
    }
  }
}
