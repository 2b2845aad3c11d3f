package org.apache.spark

/** The listener bus delivers events asynchronously and `waitUntilEmpty` is
  * package-private, so tests that count Spark jobs drain it through here.
  */
object TestListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
