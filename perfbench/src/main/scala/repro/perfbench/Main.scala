package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{FullCache, FullSharing}
import repro.core.{Rpq, RpqEval, Rtc, RtcCache, RtcSharing}
import repro.data.GraphGen
import repro.graph.{LabeledGraph, Scc, TransitiveClosure}
import repro.harness.Metrics
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The RPQ-set benchmark: one client issues a workload's RPQs one at a time
  * into one local-mode SparkSession, as a closed loop.
  *
  * {{{
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
  * }}}
  *
  * Untraced runs (`--trace 0`) time `RtcSharing.evaluate` and
  * `FullSharing.evaluate` over whole rounds, each pass with a fresh cache,
  * after one untimed warm-up round, and print the end-to-end metrics. The
  * traced run (`--trace 1`) calls the layers one by one inside spans and
  * prints the per-layer metrics. Every result is checked outside the timed
  * region. The last line of standard output is the result as JSON.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean, workdir: String)

  private def parseArgs(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workloads.byName(need("workload")).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${need("workload")}; known: ${Workloads.all.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val seconds = need("seconds").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    Args(wl, need("seed").toLong, seconds, trace, need("workdir"))
  }

  /** Threads of the local master: one per core, at most four. */
  private val Threads = math.min(4, Runtime.getRuntime.availableProcessors())

  private def session(workdir: String): SparkSession = SparkSession.builder
    .master(s"local[$Threads]")
    .appName("repro-perfbench")
    .config("spark.sql.shuffle.partitions", Threads.toLong)
    // The rest matches the program's own session (jobs/JobSession): shuffle
    // joins everywhere, and no constraint propagation, which fails on the
    // iterated self-unions of semi-naive TC.
    .config("spark.sql.autoBroadcastJoinThreshold", -1L)
    .config("spark.sql.constraintPropagation.enabled", false)
    .config("spark.ui.enabled", false)
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", s"$workdir/spark-local")
    .config("spark.sql.warehouse.dir", s"$workdir/warehouse")
    .getOrCreate()

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime

  /** Progress line on stderr, stamped with seconds since the JVM started. */
  def log(msg: String): Unit =
    Console.err.println(f"[perfbench ${(System.currentTimeMillis() - jvmStart) / 1e3}%7.2f] $msg")

  /** Live heap just after a full GC, in MB. A GC lets Spark's cleaner
    * drop the blocks of DataFrames no longer referenced, which frees more
    * at the next GC; GCs repeat until the heap stops shrinking.
    */
  private def liveHeapMb(): Double = {
    def afterGc(): Double = {
      System.gc()
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
    }
    var last = afterGc()
    var next = { Thread.sleep(200); afterGc() }
    var tries = 1
    while (next < last * 0.99 && tries < 8) {
      last = next
      Thread.sleep(200)
      next = afterGc()
      tries += 1
    }
    next
  }

  private def gcMs(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.toDouble).sum

  // --------------------------------------------------- the shared skeleton

  /** One step of Algorithm 1's recursion, in the order `evaluate` takes it. */
  sealed trait Step
  final case class Build(r: Rpq) extends Step
  final case class Hit(r: Rpq) extends Step
  final case class PostJoin(post: Rpq) extends Step

  /** Replays the DNF / decompose / recurse / cache skeleton that RTCSharing
    * and FullSharing share, against the keys `built` already holds, and
    * adds the keys the query builds.
    */
  def steps(q: Rpq, built: mutable.Set[String]): Seq[Step] = {
    val out = mutable.ArrayBuffer.empty[Step]
    def walk(x: Rpq): Unit = Rpq.dnf(x).foreach { clause =>
      val bu = Rpq.decompose(clause)
      if (bu.typ.isDefined) {
        walk(bu.pre)
        if (built.contains(bu.r.show)) out += Hit(bu.r)
        else { walk(bu.r); built += bu.r.show; out += Build(bu.r) }
        if (bu.post != Rpq.Eps) out += PostJoin(bu.post)
      }
    }
    walk(q)
    out.toSeq
  }

  // -------------------------------------------------------------- a run

  final class Run(implicit spark: SparkSession) {
    val counters = new SparkCounters(spark.sparkContext)
    val problems = mutable.ArrayBuffer.empty[String]
    var attempted = 0
    var failed = 0

    def check(ok: Boolean, what: => String): Unit = if (!ok) {
      problems += what
      log(s"CHECK FAILED: $what")
    }

    /** Evaluates every query of `queries` with `eval`, each under its own
      * job group; returns the seconds spent inside `eval` and each result.
      */
    def pass(tag: String, queries: Seq[Query], counted: Boolean)
            (eval: Rpq => DataFrame): (Double, Seq[String], Seq[Option[DataFrame]]) = {
      val groups = queries.indices.map(i => s"$tag-q$i")
      val timed = queries.zip(groups).map { case (q, g) =>
        if (counted) attempted += 1
        val t0 = System.nanoTime()
        val df = try Some(counters.under(g)(eval(q.rpq))) catch {
          case NonFatal(e) =>
            if (counted) failed += 1
            log(s"$tag '${q.text}' failed: $e")
            None
        }
        (seconds(t0), df)
      }
      log(s"$tag s/RPQ: " + timed.map(t => f"${t._1}%.2f").mkString(" "))
      (timed.map(_._1).sum, groups, timed.map(_._2))
    }

    def fingerprints(results: Seq[Option[DataFrame]]): Seq[Option[Fingerprint]] =
      counters.under("check")(results.map(_.map(Fingerprint.of)))

    /** Checks that results are sets and that RTC and Full agree. */
    def checkPair(tag: String, queries: Seq[Query],
                  rtc: Seq[Option[Fingerprint]], full: Seq[Option[Fingerprint]]): Unit =
      for (((q, r), f) <- queries.zip(rtc).zip(full)) {
        r.foreach(x => check(x.rows == x.distinct, s"$tag rtc '${q.text}' has duplicate rows: $x"))
        f.foreach(x => check(x.rows == x.distinct, s"$tag full '${q.text}' has duplicate rows: $x"))
        for (x <- r; y <- f) check(x.sameSet(y), s"$tag '${q.text}' rtc $x != full $y")
      }
  }

  final case class Round(rtcS: Double, fullS: Double, rtcJobs: Int, fullJobs: Int,
                         heapMb: Double, fps: Seq[Option[Fingerprint]])

  /** One round: an RTCSharing pass, then a FullSharing pass, each with a
    * fresh cache. A timed round also counts its RPQs, measures the live
    * heap after each pass, and checks its results.
    */
  def round(run: Run, g: LabeledGraph, queries: Seq[Query], tag: String, timed: Boolean)
           (implicit spark: SparkSession): Round = {
    val rtcCache = new RtcCache
    val fullCache = new FullCache
    val (rtcS, rtcGroups, rtcRes) =
      run.pass(s"$tag-rtc", queries, timed)(q => RtcSharing.evaluate(g, q, rtcCache))
    val rtcHeap = if (timed) liveHeapMb() else 0.0
    val (fullS, fullGroups, fullRes) =
      run.pass(s"$tag-full", queries, timed)(q => FullSharing.evaluate(g, q, fullCache))
    if (!timed) Round(rtcS, fullS, 0, 0, 0.0, Nil)
    else {
      val fullHeap = liveHeapMb()
      val rtcFps = run.fingerprints(rtcRes)
      val fullFps = run.fingerprints(fullRes)
      run.checkPair(tag, queries, rtcFps, fullFps)
      // |RTC| <= |R+_G| for every R the round built.
      val built = mutable.Set.empty[String]
      for (q <- queries; Build(r) <- steps(q.rpq, built)) run.counters.under("check") {
        val rtcSize = rtcCache.getOrElseCompute(r)(sys.error(s"no RTC cached for $r")).rtcSize
        val fullSize = fullCache.getOrElseCompute(r)(sys.error(s"no R+ cached for $r")).count()
        run.check(rtcSize <= fullSize, s"$tag |RTC($r)| = $rtcSize > |R+_G| = $fullSize")
      }
      log(s"$tag checked")
      Round(rtcS, fullS, run.counters.work(rtcGroups).jobs, run.counters.work(fullGroups).jobs,
            math.max(rtcHeap, fullHeap), rtcFps.zip(fullFps).map { case (a, b) => a.orElse(b) })
    }
  }

  /** Checks each query's fingerprint against the independent computation. */
  def checkOracles(run: Run, g: LabeledGraph, queries: Seq[Query],
                   observed: Seq[Seq[Option[Fingerprint]]]): Unit = {
    val edges = g.edges.collect().map(r => (r.getLong(0), r.getString(1), r.getLong(2))).toSeq
    lazy val search = new PathSearch(edges)
    lazy val duck = new DuckOracle(edges)
    try {
      for ((q, i) <- queries.zipWithIndex) {
        val expected = q.batch match {
          case Some((pre, r, post)) => duck.eval(pre, r, post)
          case None                 => search.eval(q.text)
        }
        for (fps <- observed; fp <- fps(i))
          run.check(fp.sameSet(expected), s"'${q.text}' gave $fp, independent check $expected")
      }
    } finally if (queries.exists(_.batch.isDefined)) duck.close()
  }

  // -------------------------------------------------------- traced round

  /** Calls each layer of Algorithm 1 by its public function, one span per
    * call, for every RPQ of the round; then the two public evaluators.
    * Returns each RPQ's fingerprint.
    */
  def tracedRound(run: Run, tracer: Tracer, g: LabeledGraph, queries: Seq[Query])
                 (implicit spark: SparkSession): Seq[Option[Fingerprint]] = {
    val rtcCache = new RtcCache
    val fullCache = new FullCache
    val built = mutable.Set.empty[String]
    queries.zipWithIndex.map { case (query, i) =>
      tracer.span("rpq", i) {
        val (q, clauses) = tracer.span("rpq.plan", i) {
          val q = Rpq.parse(query.text)
          val clauses = Rpq.dnf(q)
          clauses.foreach(Rpq.decompose)
          (q, clauses.size)
        }(x => Seq("clauses" -> x._2.toDouble))
        val plan = steps(q, built)
        plan.foreach {
          case Build(r) =>
            val rg = tracer.span("rpqeval.rg", i)(RpqEval.eval(g, r).localCheckpoint())(
              df => Seq("rows" -> df.count().toDouble))
            val scc = tracer.span("scc.assign", i)(Scc.assign(rg).localCheckpoint()) { df =>
              val sizes = df.groupBy("scc").count().collect().map(_.getLong(1))
              Seq("collect_rows" -> rg.distinct().count().toDouble,
                  "components" -> sizes.length.toDouble,
                  "largest" -> sizes.maxOption.getOrElse(0L).toDouble)
            }
            val condensed = tracer.span("scc.condense", i)(Scc.condense(rg, scc).localCheckpoint())(
              df => Seq("edges" -> df.count().toDouble))
            tracer.span("tc.reduced", i)(TransitiveClosure.of(condensed))(
              df => Seq("pairs" -> df.count().toDouble))
            val full = tracer.span("tc.full", i)(TransitiveClosure.of(rg))(
              df => Seq("pairs" -> df.count().toDouble))
            val rtc = tracer.span("rtc.build", i)(Rtc.compute(rg))(d => Seq("pairs" -> d.rtcSize.toDouble))
            run.counters.under("check") {
              val plus = Fingerprint.of(full)
              val expanded = Fingerprint.of(Rtc.expand(rtc))
              run.check(expanded.rows == expanded.distinct && expanded.sameSet(plus),
                        s"Theorem 1: expand(RTC($r)) $expanded != TC(G_R) $plus")
              run.check(rtc.rtcSize <= plus.distinct, s"|RTC($r)| = ${rtc.rtcSize} > |R+_G| = ${plus.distinct}")
            }
          case PostJoin(post) =>
            tracer.span("rpqeval.post", i)(RpqEval.evalWithoutKC(g, post).localCheckpoint())(_ => Nil)
          case Hit(_) =>
        }
        val hits = plan.count(_.isInstanceOf[Hit]).toDouble
        val misses = plan.count(_.isInstanceOf[Build]).toDouble
        def evaluate(name: String)(eval: Metrics => DataFrame): Option[Fingerprint] = {
          val m = new Metrics
          var fp: Option[Fingerprint] = None
          run.attempted += 1
          try tracer.span(name, i)(eval(m)) { df =>
            fp = Some(Fingerprint.of(df))
            Seq("shared_data_ms" -> m.ms(Metrics.SharedData), "prejoin_ms" -> m.ms(Metrics.PreJoin),
                "remainder_ms" -> m.ms(Metrics.Remainder), "cache_hits" -> hits,
                "cache_misses" -> misses, "result_rows" -> fp.get.rows.toDouble)
          } catch {
            case NonFatal(e) =>
              run.failed += 1
              log(s"traced $name '${query.text}' failed: $e")
          }
          fp
        }
        val r = evaluate("rtc.evaluate")(m => RtcSharing.evaluate(g, q, rtcCache, m))
        val f = evaluate("full.evaluate")(m => FullSharing.evaluate(g, q, fullCache, m))
        run.checkPair("traced", Seq(query), Seq(r), Seq(f))
        r.orElse(f)
      }(_ => Nil)
    }
  }

  /** Per-layer metrics: per-RPQ means over the traced round, except
    * `scc.largest`, the largest SCC of the round.
    */
  def layerMetrics(t: Tracer, n: Int, gcMsPerRpq: Double): Seq[(String, Double, String)] = {
    def per(span: String, attr: String) = t.total(span, attr) / n
    Seq(
      ("rpq.clauses", per("rpq.plan", "clauses"), "count"),
      ("rpq.plan_ms", per("rpq.plan", "ms"), "ms"),
      ("rpqeval.rg_ms", per("rpqeval.rg", "ms"), "ms"),
      ("rpqeval.rg_rows", per("rpqeval.rg", "rows"), "rows"),
      ("rpqeval.rg_jobs", per("rpqeval.rg", "jobs"), "jobs"),
      ("rpqeval.post_ms", per("rpqeval.post", "ms"), "ms"),
      ("scc.assign_ms", per("scc.assign", "ms"), "ms"),
      ("scc.assign_jobs", per("scc.assign", "jobs"), "jobs"),
      ("scc.collect_rows", per("scc.assign", "collect_rows"), "rows"),
      ("scc.components", per("scc.assign", "components"), "count"),
      ("scc.largest", t.max("scc.assign", "largest"), "vertices"),
      ("scc.condense_ms", per("scc.condense", "ms"), "ms"),
      ("scc.condense_jobs", per("scc.condense", "jobs"), "jobs"),
      ("scc.condensed_edges", per("scc.condense", "edges"), "edges"),
      ("tc.reduced_ms", per("tc.reduced", "ms"), "ms"),
      ("tc.reduced_jobs", per("tc.reduced", "jobs"), "jobs"),
      ("tc.reduced_pairs", per("tc.reduced", "pairs"), "pairs"),
      ("tc.full_ms", per("tc.full", "ms"), "ms"),
      ("tc.full_jobs", per("tc.full", "jobs"), "jobs"),
      ("tc.full_pairs", per("tc.full", "pairs"), "pairs"),
      ("rtc.build_ms", per("rtc.build", "ms"), "ms"),
      ("rtc.build_jobs", per("rtc.build", "jobs"), "jobs"),
      ("rtc.shared_pairs", per("rtc.build", "pairs"), "pairs"),
    ) ++ Seq("rtc", "full").flatMap { p =>
      val span = s"$p.evaluate"
      Seq(
        (s"$p.shared_data_ms", per(span, "shared_data_ms"), "ms"),
        (s"$p.prejoin_ms", per(span, "prejoin_ms"), "ms"),
        (s"$p.remainder_ms", per(span, "remainder_ms"), "ms"),
        (s"$p.cache_hits", per(span, "cache_hits"), "count"),
        (s"$p.cache_misses", per(span, "cache_misses"), "count"),
        (s"$p.result_rows", per(span, "result_rows"), "rows"),
        (s"$p.tasks", per(span, "tasks"), "tasks"),
        (s"$p.shuffle_mb", per(span, "shuffle_mb"), "MB"),
        (s"$p.driver_ms", per(span, "driver_ms"), "ms"),
      )
    } :+ ("gc_ms", gcMsPerRpq, "ms")
  }

  // ---------------------------------------------------------------- main

  def main(argv: Array[String]): Unit = {
    val code = try { benchmark(argv); 0 } catch {
      case NonFatal(e) => e.printStackTrace(); 1
    }
    sys.exit(code)
  }

  private def benchmark(argv: Array[String]): Unit = {
    val args = try parseArgs(argv) catch {
      case e: IllegalArgumentException =>
        Console.err.println(s"[perfbench] ${e.getMessage}")
        sys.exit(2)
    }
    Files.createDirectories(Paths.get(args.workdir))
    implicit val spark: SparkSession = session(args.workdir)
    try {
      val sessionS = (System.currentTimeMillis() - jvmStart) / 1e3
      val conf = spark.conf
      val settings = Seq("spark.master" -> spark.sparkContext.master) ++
        Seq("spark.sql.shuffle.partitions", "spark.sql.autoBroadcastJoinThreshold",
            "spark.sql.adaptive.enabled", "spark.sql.constraintPropagation.enabled")
          .map(k => k -> conf.get(k)) ++
        Seq("max_heap_mb" -> (Runtime.getRuntime.maxMemory / 1e6).round.toString)
      println(s"# workload=${args.workload.name} seed=${args.seed} seconds=${args.seconds} " +
        s"trace=${if (args.trace) 1 else 0} " + settings.map { case (k, v) => s"$k=$v" }.mkString(" "))

      val run = new Run
      // Set-up that can be repeated is repeated; its median counts.
      val loads = (1 to 3).map { _ =>
        val t0 = System.nanoTime()
        val g = run.counters.under("setup")(args.workload.dataset.load(spark))
        (seconds(t0), g)
      }
      val g = loads.last._2
      val labels = run.counters.under("setup")(g.labels)
      val queries = args.workload.queries(labels, args.seed)
      queries.foreach(_.rpq)
      log(s"${queries.size} RPQs per round: ${queries.map(_.text).mkString("; ")}")

      // Warm-up: the round's RPQs on a graph an eighth the size, with the
      // same alphabet and degree per label, so the JIT has compiled the
      // code paths of the timed rounds at a fraction of their cost.
      val w0 = System.nanoTime()
      val spec = args.workload.dataset
      val small = run.counters.under("setup")(
        GraphGen.random(spark, spec.numV / 8, spec.numE / 8, spec.numLabels, spec.seed).materialize)
      val warm = round(run, small, queries, "warmup", timed = false)
      val setupS = sessionS + median(loads.map(_._1)) + seconds(w0)
      log(f"setup: session $sessionS%.2f s, loads ${loads.map(_._1).mkString(", ")} s, " +
        f"warm-up ${seconds(w0)}%.2f s (rtc ${warm.rtcS}%.2f, full ${warm.fullS}%.2f)")

      val metrics: Seq[(String, Double, String)] = if (!args.trace) {
        val rounds = mutable.ArrayBuffer.empty[Round]
        while (rounds.map(r => r.rtcS + r.fullS).sum < args.seconds)
          rounds += round(run, g, queries, s"r${rounds.size}", timed = true)
        val c0 = System.nanoTime()
        checkOracles(run, g, queries, rounds.map(_.fps).toSeq)
        log(f"independent checks ${seconds(c0)}%.2f s")
        val n = queries.size.toDouble
        log(f"${rounds.size} timed rounds; rtc s/pass ${rounds.map(_.rtcS).mkString(", ")}; " +
          s"full s/pass ${rounds.map(_.fullS).mkString(", ")}")
        Seq(
          ("setup_s", setupS, "s"),
          ("rtc.rpq_per_s", median(rounds.map(n / _.rtcS).toSeq), "1/s"),
          ("full.rpq_per_s", median(rounds.map(n / _.fullS).toSeq), "1/s"),
          ("rtc.jobs_per_rpq", median(rounds.map(_.rtcJobs / n).toSeq), "jobs"),
          ("full.jobs_per_rpq", median(rounds.map(_.fullJobs / n).toSeq), "jobs"),
          ("heap_peak_mb", rounds.map(_.heapMb).max, "MB"),
        )
      } else {
        val tracer = new Tracer(run.counters)
        val gc0 = gcMs()
        val fps = tracedRound(run, tracer, g, queries)
        val gcPerRpq = (gcMs() - gc0) / queries.size
        checkOracles(run, g, queries, Seq(fps))
        val traceFile = Paths.get(args.workdir, s"trace-${args.workload.name}-seed${args.seed}.json")
        Files.write(traceFile, tracer.toJson.getBytes("UTF-8"))
        for (p <- Seq("rtc", "full"))
          log(f"traced $p.rpq_per_s ${queries.size * 1000 / tracer.total(s"$p.evaluate", "ms")}%.4f")
        log(s"spans written to $traceFile")
        layerMetrics(tracer, queries.size, gcPerRpq)
      }

      log("measured; stopping Spark")
      val body = metrics.map { case (k, v, u) => s""""$k": {"value": $v, "unit": "$u"}""" }.mkString(", ")
      println(s"""{"correct": ${run.problems.isEmpty}, "attempted": ${run.attempted}, """ +
        s""""failed": ${run.failed}, "metrics": {$body}}""")
    } finally {
      spark.stop()
      log("stopped")
    }
  }
}
