package perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.{ListenerBridge, SparkContext}
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One timed call at a layer boundary. `parent` is the id of the span that
  * was open when this one started (0 for none); times are `System.nanoTime`.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long,
                      tag: String = "") {
  def durNs: Long = endNs - startNs
}

/** One Spark job, attributed to the span that submitted it. */
final case class JobRecord(jobId: Int, span: Int, tag: String, startMs: Long, endMs: Long)

/** One stage that ran: its tasks and their summed executor run time,
  * attributed to the span whose job submitted it.
  */
final case class StageRecord(stageId: Int, span: Int, tag: String, tasks: Int, taskRunMs: Long)

/** Counts every job, every stage that ran and its tasks, and reads the
  * submitting span from the local properties that jobs and stage submissions
  * carry (set by [[Tracer.span]] on the driver thread). A stage whose shuffle
  * output an earlier job already wrote is skipped, never submitted, and so
  * never counted; a stage counts once, under the job that ran it.
  */
final class JobListener extends SparkListener {
  private final class Open(val span: Int, val tag: String, val startMs: Long)
  private final class Running(val span: Int, val tag: String) {
    var tasks = 0
    var runMs = 0L
  }
  private val openJobs = new ConcurrentHashMap[Int, Open]()
  private val running = new ConcurrentHashMap[(Int, Int), Running]()
  private val jobsDone = mutable.ArrayBuffer.empty[JobRecord]
  private val stagesDone = mutable.ArrayBuffer.empty[StageRecord]

  private def owner(p: java.util.Properties): (Int, String) = {
    val props = Option(p)
    (props.flatMap(x => Option(x.getProperty(Tracer.SpanKey))).map(_.toInt).getOrElse(0),
      props.flatMap(x => Option(x.getProperty(Tracer.TagKey))).getOrElse(""))
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val (span, tag) = owner(e.properties)
    openJobs.put(e.jobId, new Open(span, tag, e.time))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val o = openJobs.remove(e.jobId)
    if (o != null) synchronized { jobsDone += JobRecord(e.jobId, o.span, o.tag, o.startMs, e.time) }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
    val (span, tag) = owner(e.properties)
    running.put((e.stageInfo.stageId, e.stageInfo.attemptNumber()), new Running(span, tag))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val r = running.get((e.stageId, e.stageAttemptId))
    if (r != null) {
      r.tasks += 1
      if (e.taskMetrics != null) r.runMs += e.taskMetrics.executorRunTime
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val r = running.remove((e.stageInfo.stageId, e.stageInfo.attemptNumber()))
    if (r != null) synchronized {
      stagesDone += StageRecord(e.stageInfo.stageId, r.span, r.tag, r.tasks, r.runMs)
    }
  }

  def jobs: Seq[JobRecord] = synchronized(jobsDone.toList)
  def stages: Seq[StageRecord] = synchronized(stagesDone.toList)
}

/** In-memory spans around calls into the program's public functions. Spans
  * are recorded only while `enabled`; otherwise `span` just runs its body.
  * Single driver thread: the open-span stack is plain mutable state.
  */
final class Tracer(sc: SparkContext, val enabled: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 1
  private val listener: Option[JobListener] =
    if (enabled) { val l = new JobListener; sc.addSparkListener(l); Some(l) } else None

  private def current: Int = stack.headOption.getOrElse(0)

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = current
      stack = id :: stack
      sc.setLocalProperty(Tracer.SpanKey, id.toString)
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, name, t0, System.nanoTime())
        stack = stack.tail
        sc.setLocalProperty(Tracer.SpanKey, if (parent == 0) null else parent.toString)
      }
    }

  /** Record a span measured by the caller (e.g. the gap between two picks);
    * its jobs are those submitted under `tag`.
    */
  def record(name: String, startNs: Long, endNs: Long, tag: String): Unit =
    if (enabled) { spans += Span(nextId, current, name, startNs, endNs, tag); nextId += 1 }

  /** Free-form tag carried by every job submitted from now on. */
  def tag(t: String): Unit = if (enabled) sc.setLocalProperty(Tracer.TagKey, t)

  /** Wait until the listener has seen every job submitted so far. */
  def drain(): Unit = if (enabled) ListenerBridge.drain(sc)

  def allSpans: Seq[Span] = spans.toList
  def jobs: Seq[JobRecord] = listener.map(_.jobs).getOrElse(Nil)
  def stages: Seq[StageRecord] = listener.map(_.stages).getOrElse(Nil)

  def close(): Unit = listener.foreach(sc.removeSparkListener)
}

object Tracer {
  val SpanKey = "perfbench.span"
  val TagKey = "perfbench.tag"

  /** Self time per span: its duration minus the part its children cover. */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val childNs = spans.filter(_.parent != 0).groupMapReduce(_.parent)(_.durNs)(_ + _)
    spans.map(s => s.id -> (s.durNs - childNs.getOrElse(s.id, 0L))).toMap
  }

  /** Wall time during which at least one of the jobs was running. */
  def inJobMs(jobs: Seq[JobRecord]): Long = {
    var total = 0L; var curS = Long.MinValue; var curE = Long.MinValue
    for (j <- jobs.sortBy(_.startMs)) {
      if (j.startMs > curE) { if (curE > curS) total += curE - curS; curS = j.startMs; curE = j.endMs }
      else curE = math.max(curE, j.endMs)
    }
    if (curE > curS) total += curE - curS
    total
  }
}
