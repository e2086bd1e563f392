package repro.jobs

import org.apache.spark.sql.SparkSession

/** The one SparkSession builder, shared by the job entrypoints, the tests
  * and the bench suites. Spark picks no broadcast join by its own size
  * estimate (the threshold is -1). Only the shared relations are hinted
  * for broadcast: `RtcCache` always hints its driver-built SCC relation and
  * RTC, and `FullCache` hints `R+_G` when its exact size fits the driver
  * budget. Every other join shuffles. Shuffles use one partition per local
  * core, since adaptive execution coalesces the small shuffles of these
  * graphs anyway. `SPARK_MASTER` (default `local[*]`) selects the deployment.
  */
object JobSession {
  def build(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"repro-$app")
      .config("spark.sql.shuffle.partitions", Runtime.getRuntime.availableProcessors.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // Iterative self-unions of localCheckpoint'ed plans (semi-naive TC)
      // trip a Catalyst constraint-rewrite bug ("key not found: s#N" in
      // UnionBase.rewriteConstraints); constraint propagation buys nothing
      // for these tiny plans, so disable it.
      .config("spark.sql.constraintPropagation.enabled", false)
      .config("spark.ui.enabled", false)
      .getOrCreate()
}
