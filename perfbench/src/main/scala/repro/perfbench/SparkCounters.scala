package repro.perfbench

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark work done under a set of job groups.
  *
  * @param jobs         Spark jobs started
  * @param tasks        tasks finished
  * @param shuffleBytes shuffle bytes written
  * @param jobMs        wall ms covered by at least one running job
  */
final case class GroupWork(jobs: Int, tasks: Int, shuffleBytes: Long, jobMs: Long)

/** Counts Spark jobs, tasks and shuffle bytes per job group.
  *
  * The benchmark runs every call it measures under a job group of its own
  * (`SparkContext.setJobGroup`), so work is attributed by the group that
  * Spark stamps on each job, not by when its events arrive.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  private val GroupKey = "spark.jobGroup.id"
  private val jobs = mutable.Map.empty[String, Int].withDefaultValue(0)
  private val tasks = mutable.Map.empty[String, Int].withDefaultValue(0)
  private val shuffle = mutable.Map.empty[String, Long].withDefaultValue(0L)
  private val running = mutable.Map.empty[Int, (String, Long)]
  private val intervals = mutable.Map.empty[String, mutable.ArrayBuffer[(Long, Long)]]
  private val stageGroup = mutable.Map.empty[Int, String]

  sc.addSparkListener(this)

  private def group(p: java.util.Properties): String =
    Option(p).flatMap(x => Option(x.getProperty(GroupKey))).getOrElse("")

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = group(e.properties)
    jobs(g) += 1
    running(e.jobId) = (g, e.time)
    e.stageIds.foreach(stageGroup(_) = g)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    running.remove(e.jobId).foreach { case (g, t0) =>
      intervals.getOrElseUpdate(g, mutable.ArrayBuffer.empty) += ((t0, e.time))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageGroup.get(e.stageId).foreach { g =>
      tasks(g) += 1
      if (e.taskMetrics != null) shuffle(g) += e.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Work done so far under `groups`, after every queued event is seen. */
  def work(groups: Iterable[String]): GroupWork = {
    ListenerBusDrain(sc)
    synchronized {
      val spans = groups.flatMap(g => intervals.getOrElse(g, Nil)).toSeq.sortBy(_._1)
      var covered = 0L
      var end = Long.MinValue
      for ((a, b) <- spans) {
        if (b > end) covered += b - math.max(a, end)
        end = math.max(end, b)
      }
      GroupWork(groups.iterator.map(jobs).sum, groups.iterator.map(tasks).sum,
                groups.iterator.map(shuffle).sum, covered)
    }
  }

  /** Runs `f` with its Spark jobs under job group `g`. */
  def under[T](g: String)(f: => T): T = {
    val previous = sc.getLocalProperty(GroupKey)
    sc.setJobGroup(g, g, interruptOnCancel = false)
    try f
    finally {
      if (previous == null) sc.clearJobGroup()
      else sc.setJobGroup(previous, previous, interruptOnCancel = false)
    }
  }
}
