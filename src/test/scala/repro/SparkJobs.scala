package repro

import java.util.Properties
import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs a block of code starts. Tests run one at a time
  * in one JVM, so every job started while the block runs is its own.
  */
object SparkJobs {
  def count(spark: SparkSession)(body: => Any): Int = properties(spark)(body).size

  /** The local properties of each job the block starts, in start order. */
  def properties(spark: SparkSession)(body: => Any): Seq[Properties] = {
    val sc = spark.sparkContext
    val jobs = new ConcurrentLinkedQueue[Properties]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        jobs.add(Option(e.properties).getOrElse(new Properties)); ()
      }
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try {
      body
      ListenerBusDrain(sc)
      jobs.asScala.toSeq
    } finally sc.removeSparkListener(listener)
  }
}
