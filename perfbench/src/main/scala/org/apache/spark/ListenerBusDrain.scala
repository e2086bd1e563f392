package org.apache.spark

/** Waits until every listener has seen every event posted so far.
  *
  * Spark delivers listener events on a background thread, so the events of
  * a job that has just returned may still be queued. `waitUntilEmpty` is
  * `private[spark]`, hence this object's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
