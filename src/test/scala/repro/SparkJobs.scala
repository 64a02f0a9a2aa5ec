package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs a block of code starts. Tests run one at a time
  * in one JVM, so every job started while the block runs is its own.
  */
object SparkJobs {
  def count(spark: SparkSession)(body: => Any): Int = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try {
      body
      ListenerBusDrain(sc)
      jobs.get
    } finally sc.removeSparkListener(listener)
  }
}
