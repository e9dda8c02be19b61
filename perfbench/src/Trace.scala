package repro.perfbench

import scala.collection.concurrent.TrieMap
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec

/** Spark engine counters attributed to one span. Times are in ms, as Spark
  * reports them.
  */
final class Counters {
  @volatile var jobs, stages, tasks, failedTasks = 0L
  @volatile var runMs, waitMs, gcMs, shuffleWrite, shuffleRead, spill = 0L

  def +=(o: Counters): Unit = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks; failedTasks += o.failedTasks
    runMs += o.runMs; waitMs += o.waitMs; gcMs += o.gcMs
    shuffleWrite += o.shuffleWrite; shuffleRead += o.shuffleRead; spill += o.spill
  }
}

/** One timed layer call. `parent` is -1 for a root span; `query` is the
  * index of the query that all its spans share (negative for set-up and
  * warm-up, see [[Workload]]).
  */
final case class Span(id: Int, name: String, parent: Int, query: Int, startNs: Long, var endNs: Long = 0L) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder plus the `SparkListener` that attributes engine
  * counters to the innermost open span.
  *
  * The open span's id travels to the scheduler as a job-local property, so a
  * job, its stages and its tasks are charged to the span that submitted them
  * even though listener events arrive asynchronously. [[drain]] waits until
  * every event posted so far has been delivered.
  */
final class Tracer(sc: SparkContext) extends SparkListener {
  import Tracer.Prop

  val spans = ArrayBuffer.empty[Span]
  val counters = TrieMap.empty[Int, Counters]
  private var open = List.empty[Int]
  private val stageSpan = TrieMap.empty[Int, Int]
  private val stageSubmitMs = TrieMap.empty[(Int, Int), Long]
  @volatile private var markerDone = false

  sc.addSparkListener(this)

  def span[A](name: String, query: Int)(f: => A): A = {
    val s = Span(spans.size, name, open.headOption.getOrElse(-1), query, System.nanoTime())
    spans += s
    open = s.id :: open
    sc.setLocalProperty(Prop, s.id.toString)
    try f
    finally {
      s.endNs = System.nanoTime()
      open = open.tail
      sc.setLocalProperty(Prop, open.headOption.map(_.toString).orNull)
    }
  }

  /** Counts noted by layer calls, keyed by (query, metric name). */
  val notes = TrieMap.empty[(Int, String), Double]

  /** Adds `v` to metric `name` of the query whose span is open. */
  def note(name: String, v: Double): Unit = {
    val key = (open.headOption.map(spans(_).query).getOrElse(-1), name)
    notes(key) = notes.getOrElse(key, 0.0) + v
  }

  /** Counters of span `id` (zero if no job ran under it). */
  def countersOf(id: Int): Counters = counters.getOrElse(id, new Counters)

  /** Self time: duration minus the part covered by child spans. Children
    * run sequentially on the one client thread, so they never overlap.
    */
  def selfNs(s: Span): Long = s.durNs - spans.iterator.filter(_.parent == s.id).map(_.durNs).sum

  /** Block until all listener events posted before this call are delivered:
    * a marker job is submitted and its stage-completed event awaited (the
    * listener bus delivers events in order).
    */
  def drain(): Unit = {
    markerDone = false
    sc.setLocalProperty(Prop, Tracer.Marker)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(Prop, open.headOption.map(_.toString).orNull)
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (!markerDone) {
      require(System.nanoTime() < deadline, "listener bus did not drain within 30 s")
      Thread.sleep(5)
    }
  }

  private def spanOf(props: java.util.Properties): Option[Int] =
    Option(props).flatMap(p => Option(p.getProperty(Prop))).flatMap(_.toIntOption)

  private def c(id: Int): Counters = counters.getOrElseUpdate(id, new Counters)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val marker = Option(e.properties).exists(_.getProperty(Prop) == Tracer.Marker)
    if (marker) e.stageIds.foreach(stageSpan(_) = Tracer.MarkerId)
    else spanOf(e.properties).foreach { id =>
      c(id).jobs += 1
      e.stageIds.foreach(stageSpan(_) = id)
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
    val info = e.stageInfo
    stageSpan.get(info.stageId).filter(_ != Tracer.MarkerId).foreach { id =>
      c(id).stages += 1
      stageSubmitMs((info.stageId, info.attemptNumber())) = info.submissionTime.getOrElse(System.currentTimeMillis())
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    if (stageSpan.get(e.stageInfo.stageId).contains(Tracer.MarkerId)) markerDone = true

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    stageSpan.get(e.stageId).filter(_ != Tracer.MarkerId).foreach { id =>
      val k = c(id)
      k.tasks += 1
      if (e.taskInfo.failed) k.failedTasks += 1
      stageSubmitMs.get((e.stageId, e.stageAttemptId)).foreach(t => k.waitMs += math.max(0L, e.taskInfo.launchTime - t))
      val m = e.taskMetrics
      if (m != null) {
        k.runMs += m.executorRunTime
        k.gcMs += m.jvmGCTime
        k.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
        k.shuffleRead += m.shuffleReadMetrics.totalBytesRead
        k.spill += m.memoryBytesSpilled + m.diskBytesSpilled
      }
    }
}

object Tracer {
  val Prop = "repro.perfbench.span"
  private val Marker = "marker"
  private val MarkerId = Int.MinValue

  /** Shuffle exchanges in a DataFrame's executed plan, counted as
    * `ShuffleExchangeExec` nodes of the final adaptive plan. Call after an
    * action has run on `df` itself. Reused exchanges and cached relations
    * (whose plans ran earlier) are not counted.
    */
  def exchanges(df: DataFrame): Int = exchanges(df.queryExecution.executedPlan)

  private def exchanges(p: SparkPlan): Int = p match {
    case a: AdaptiveSparkPlanExec => exchanges(a.executedPlan)
    case s: QueryStageExec        => exchanges(s.plan)
    case e: ShuffleExchangeExec   => 1 + e.children.map(exchanges).sum
    case other                    => other.children.map(exchanges).sum
  }
}
