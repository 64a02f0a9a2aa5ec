package org.apache.spark

/** Lets the benchmark wait until Spark has delivered every queued listener
  * event, so per-span job counts are complete when they are read. The
  * listener bus is `private[spark]`, hence this object's package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
