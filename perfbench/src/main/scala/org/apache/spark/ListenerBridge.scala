package org.apache.spark

/** The listener bus delivers events asynchronously; `waitUntilEmpty` is
  * package-private, so this one-line bridge lives in Spark's package.
  */
object ListenerBridge {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
