package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Benchmark JVM entry point; `perfbench/run.py` builds and starts it.
  *
  *   --workload W --seed N --seconds S --trace 0|1 [--table7-ref F] [--spans F]
  *   --check-table7 [--table7-ref F]
  *
  * Prints one JSON record as its last line of standard output.
  */
object Main {
  /** Stop starting passes after this long, so a run ends well within 180 s. */
  val RunBudgetS = 120.0
  val ShufflePartitions = 8

  def main(args: Array[String]): Unit = {
    val opts = args.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k -> v }.toMap
    val spark = SparkSession.builder
      .master(s"local[${math.min(4, Runtime.getRuntime.availableProcessors)}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val ref = Checks.table7Reference(opts.getOrElse("--table7-ref", "bench_results/table7.txt"))
    val rec =
      try {
        if (args.contains("--check-table7")) checkTable7(spark, ref)
        else run(spark, opts("--workload"), opts.getOrElse("--seed", "0").toLong,
          opts.getOrElse("--seconds", "10").toDouble, opts.getOrElse("--trace", "0") == "1",
          ref, opts.get("--spans"))
      } finally spark.stop()
    println(Json(rec ++ Map("env" -> environment(spark))))
  }

  def environment(spark: SparkSession): Map[String, Any] = Map(
    "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
    "xmx_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
    "spark" -> spark.version,
    "master" -> spark.sparkContext.master,
    "shuffle_partitions" -> ShufflePartitions,
    "available_processors" -> Runtime.getRuntime.availableProcessors,
  )

  private def gcMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  private def heapMbAfterGc(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Nearest-rank quantile. */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else { val s = xs.sorted; s(math.min(s.size - 1, math.ceil(q * s.size).toInt - 1).max(0)) }

  def run(spark: SparkSession, name: String, seed: Long, seconds: Double, trace: Boolean,
          ref: Map[(String, String), (String, String)], spansPath: Option[String]): Map[String, Any] = {
    val tracer = new Tracer(spark.sparkContext, trace)
    val ctx = new Ctx(spark, tracer, seed, ref)
    val wl = Workload(name, ctx)
    val start = System.nanoTime()

    val setupS = (1 to wl.setupReps).map { _ =>
      wl.release()
      val t0 = System.nanoTime()
      tracer.span("setup")(wl.setup())
      (System.nanoTime() - t0) / 1e9
    }

    final case class Pass(wallS: Double, gcMs: Long, done: Finished)
    val passes = mutable.ArrayBuffer.empty[Pass]
    val measureStart = System.nanoTime()
    def elapsed(from: Long) = (System.nanoTime() - from) / 1e9
    while (passes.isEmpty || (elapsed(measureStart) < seconds && elapsed(start) < RunBudgetS)) {
      val gc0 = gcMs
      val t0 = System.nanoTime()
      val r = tracer.span("pass")(wl.pass())
      val wall = (System.nanoTime() - t0) / 1e9
      val gc = gcMs - gc0
      passes += Pass(wall, gc, r.finish())
    }
    // A full GC between passes resizes the heap and slowed the passes after
    // it by up to 30%, so the heap is measured once, after the last pass.
    val heapMb = heapMbAfterGc()
    wl.release()

    val ops = passes.flatMap(_.done.ops)
    val checks = passes.flatMap(_.done.checks)
    val failures = ops.flatMap(_.failure) ++ checks.flatten
    val opMs = ops.filter(_.failure.isEmpty).map(_.ms).toSeq
    val wallS = median(passes.map(_.wallS).toSeq)
    val endToEnd: Seq[(String, Double, String)] = Seq(
      ("setup_s", median(setupS), "s"),
      ("wall_s", wallS, "s"),
      ("request_ms_p50", quantile(opMs, 0.5), "ms"),
      ("request_ms_p99", quantile(opMs, 0.99), "ms"),
      ("error_rate", median(passes.map(_.done.errorRate).toSeq), "ratio"),
      ("mnad", median(passes.map(_.done.mnad).toSeq), "ratio"),
      ("heap_mb", heapMb, "MB"),
    )
    val metrics =
      if (!trace) endToEnd
      else {
        tracer.drain()
        spansPath.foreach(p => writeTrace(p, tracer))
        Layers.metrics(tracer.allSpans, tracer.jobs, tracer.stages, ctx,
          passes.map(_.gcMs.toDouble).sum / passes.size, wallS)
      }
    tracer.close()
    val nonFinite = metrics.filter { case (_, v, _) => v.isNaN || v.isInfinite }.map(_._1)
    val failed = failures.toSeq ++ nonFinite.map(m => s"metric $m is not finite")
    val attempted = ops.size + checks.size
    Map(
      "correct" -> failed.isEmpty,
      "attempted" -> attempted,
      "failed" -> failed.size,
      "metrics" -> metrics.map { case (n, v, u) =>
        n -> Map("value" -> (if (v.isNaN || v.isInfinite) 0.0 else v), "unit" -> u) }.toMap,
      "checks_failed" -> failed.take(20),
      "fail_ratio" -> failures.size.toDouble / attempted,
      "run" -> Map(
        "workload" -> name, "seed" -> seed, "seconds" -> seconds, "trace" -> (if (trace) 1 else 0),
        "setup_reps" -> wl.setupReps, "setup_s_each" -> setupS,
        "warmup_passes" -> 0,
        "passes" -> passes.size, "pass_wall_s" -> passes.map(_.wallS).toSeq,
        "ops_per_pass" -> passes.head.done.ops.size,
        "last_pass_op_ms" -> passes.last.done.ops.take(50).map(_.ms),
        "total_s" -> elapsed(start), "why" -> wl.why,
        "scores" -> passes.last.done.scores.map { case (m, (e, n)) => m -> Seq(e, n) }),
    )
  }

  /** Spans, jobs and stages, one JSON object a line, written once at the end. */
  private def writeTrace(path: String, tracer: Tracer): Unit = {
    val p = Paths.get(path)
    Option(p.getParent).foreach(Files.createDirectories(_))
    val lines = tracer.allSpans.map { s =>
      Json(Map("span" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs, "tag" -> s.tag))
    } ++ tracer.jobs.map { j =>
      Json(Map("job" -> j.jobId, "span" -> j.span, "tag" -> j.tag, "start_ms" -> j.startMs,
        "end_ms" -> j.endMs))
    } ++ tracer.stages.map { s =>
      Json(Map("stage" -> s.stageId, "span" -> s.span, "tag" -> s.tag, "tasks" -> s.tasks,
        "task_run_ms" -> s.taskRunMs))
    }
    Files.write(p, lines.asJava)
  }

  /** The whole Table 7 with the default seeds, against the archived table. */
  def checkTable7(spark: SparkSession, ref: Map[(String, String), (String, String)])
      : Map[String, Any] = {
    val (scores, _) = Experiments.table7(spark)
    val failures = scores.flatMap(s => Checks.table7(ref, s.method, s.dataset, s.errorRate, s.mnad))
    Map("correct" -> failures.isEmpty, "attempted" -> scores.size, "failed" -> failures.size,
      "checks_failed" -> failures, "metrics" -> Map.empty)
  }
}

/** Minimal JSON encoder for the records above. */
object Json {
  def apply(v: Any): String = v match {
    case null                      => "null"
    case s: String                 => quote(s)
    case b: Boolean                => b.toString
    case d: Double                 => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Number                 => n.toString
    case m: scala.collection.Map[_, _] =>
      m.toSeq.sortBy(_._1.toString).map { case (k, x) => quote(k.toString) + ":" + apply(x) }
        .mkString("{", ",", "}")
    case xs: Iterable[_]           => xs.map(apply).mkString("[", ",", "]")
    case other                     => quote(other.toString)
  }

  private def quote(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")
}
