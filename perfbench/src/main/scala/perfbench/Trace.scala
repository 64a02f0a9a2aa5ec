package perfbench

import scala.collection.mutable
import org.apache.spark.PerfbenchBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.sql.SparkSession

/** One timed interval around a call into a program layer. Spans of one
  * operation share `op`; `parent` is the enclosing span (-1 for an
  * operation's root span).
  */
final case class Span(id: Int, name: String, parent: Int, op: Int, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Spark work attributed to one span: jobs started, stages completed and
  * shuffle bytes written while the span was the innermost open one.
  */
final class SparkWork {
  var jobs = 0
  var stages = 0
  var shuffleBytes = 0L
  def +=(o: SparkWork): Unit = { jobs += o.jobs; stages += o.stages; shuffleBytes += o.shuffleBytes }
}

/** Span recorder. With tracing off, `span` only runs its body, so the
  * untraced run measures the program alone. With tracing on, the innermost
  * open span id is set as a Spark local property before each call, and a
  * listener attributes every job and stage to it.
  */
final class Tracer(spark: SparkSession, val enabled: Boolean) {
  private val SpanProperty = "perfbench.span"
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[(Int, String, Long)]
  private var nextId = 0
  private var op = 0
  private val work = mutable.Map.empty[Int, SparkWork]
  private val stageSpan = mutable.Map.empty[Int, Int]

  private object Listener extends SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      val id = Option(e.properties).flatMap(p => Option(p.getProperty(SpanProperty))).map(_.toInt)
      id.foreach { s =>
        work.getOrElseUpdate(s, new SparkWork).jobs += 1
        e.stageIds.foreach(stageSpan(_) = s)
      }
    }
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
      stageSpan.get(e.stageInfo.stageId).foreach { s =>
        val w = work.getOrElseUpdate(s, new SparkWork)
        w.stages += 1
        w.shuffleBytes += e.stageInfo.taskMetrics.shuffleWriteMetrics.bytesWritten
      }
    }
  }
  if (enabled) spark.sparkContext.addSparkListener(Listener)

  /** Spans are recorded only while active; a traced run switches this. */
  var active: Boolean = enabled

  /** Start a new operation; spans opened until the next call share its id. */
  def newOp(): Unit = op += 1

  def span[A](name: String)(body: => A): A =
    if (!(enabled && active)) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.map(_._1).getOrElse(-1)
      val sc = spark.sparkContext
      open = (id, name, System.nanoTime()) :: open
      sc.setLocalProperty(SpanProperty, id.toString)
      try body
      finally {
        val (_, _, start) = open.head
        open = open.tail
        done += Span(id, name, parent, op, start, System.nanoTime())
        sc.setLocalProperty(SpanProperty, open.headOption.map(_._1.toString).orNull)
      }
    }

  /** All closed spans, in closing order. */
  def spans: Seq[Span] = done.toSeq

  /** Spark work of a span including its descendants. Waits for the
    * listener bus first so no event is still in flight.
    */
  def inclusiveWork(): Map[Int, SparkWork] = {
    PerfbenchBus.drain(spark.sparkContext)
    val children = done.groupBy(_.parent)
    val memo = mutable.Map.empty[Int, SparkWork]
    def total(id: Int): SparkWork = memo.getOrElseUpdate(id, {
      val w = new SparkWork
      Listener.synchronized(work.get(id)).foreach(w += _)
      children.getOrElse(id, Nil).foreach(c => w += total(c.id))
      w
    })
    done.map(s => s.id -> total(s.id)).toMap
  }

  /** Self time of each span: its duration minus the time its children
    * cover (children run one after another on the client thread).
    */
  def selfMs: Map[Int, Double] = {
    val childMs = done.groupBy(_.parent).view.mapValues(_.map(_.ms).sum).toMap
    done.map(s => s.id -> (s.ms - childMs.getOrElse(s.id, 0.0))).toMap
  }
}
