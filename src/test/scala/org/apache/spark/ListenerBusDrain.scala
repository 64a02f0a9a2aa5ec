package org.apache.spark

/** Waits until Spark has delivered every queued listener event, so a job
  * count read afterwards is complete. The listener bus is `private[spark]`,
  * hence this object's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
