package perfbench

/** Per-layer metrics of a traced run, derived from its spans and the Spark
  * jobs and stages each span submitted. Per-call figures average over set-up
  * and measured passes, per-pass figures over the passes.
  */
object Layers {
  val baselines: Seq[String] = Seq("crh", "catd", "mv", "ds", "glad", "zencrowd", "median", "gtm")

  private def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def metrics(spans: Seq[Span], jobs: Seq[JobRecord], stages: Seq[StageRecord], ctx: Ctx,
              gcMsPerPass: Double, wallS: Double): Seq[(String, Double, String)] = {
    val byId = spans.map(s => s.id -> s).toMap
    def under(id: Int, root: String): Boolean =
      Iterator.iterate(id)(c => byId.get(c).map(_.parent).getOrElse(0)).takeWhile(_ != 0)
        .exists(c => byId.get(c).exists(_.name == root))
    val jobsOf = jobs.groupBy(_.span)
    val stagesOf = stages.groupBy(_.span)
    val selfNs = Tracer.selfNs(spans)

    def calls(name: String): Seq[Span] = spans.filter(_.name == name)
    /** Mean self time of a layer's calls. */
    def callMs(name: String): Double = mean(calls(name).map(s => selfNs(s.id) / 1e6))
    def perCall[R](name: String, of: Map[Int, Seq[R]], f: R => Double): Double = {
      val cs = calls(name)
      if (cs.isEmpty) 0.0 else cs.flatMap(s => of.getOrElse(s.id, Nil)).map(f).sum / cs.size
    }
    def layer(prefix: String, call: String): Seq[(String, Double, String)] = Seq(
      (s"$prefix.${call}_ms", callMs(s"$prefix.$call"), "ms"),
      (s"$prefix.jobs", perCall[JobRecord](s"$prefix.$call", jobsOf, _ => 1.0), "count"))

    val runs = ctx.tcrowdRuns.toSeq
    val iters = mean(runs.map(_.iterations.toDouble))
    val inferMs = callMs("tcrowd.infer")
    val tcrowd = layer("tcrowd", "infer") ++ Seq(
      ("tcrowd.tasks", perCall[StageRecord]("tcrowd.infer", stagesOf, _.tasks.toDouble), "count"),
      ("tcrowd.iterations", iters, "count"),
      ("tcrowd.converged_frac", mean(runs.map(r => if (r.converged) 1.0 else 0.0)), "ratio"),
      ("tcrowd.ms_per_iter", if (iters > 0) inferMs / iters else 0.0, "ms"))

    val picks = calls("assignment.pick").map(_.durNs.toDouble)
    val refreshes = calls("assignment.refresh")
    val passes = calls("pass")
    val nPasses = math.max(1, passes.size)
    val refreshJobs = refreshes.map(r => jobs.count(_.tag == r.tag).toDouble)
    val assignment = Seq(
      ("assignment.pick_us", mean(picks) / 1e3, "us"),
      ("assignment.pick_us_p99", Main.quantile(picks, 0.99) / 1e3, "us"),
      ("assignment.candidates", if (picks.isEmpty) 0.0 else ctx.candidates.toDouble / picks.size, "count"),
      ("assignment.ns_per_candidate", if (ctx.candidates == 0) 0.0 else picks.sum / ctx.candidates, "ns"),
      ("assignment.apply_us", callMs("assignment.apply") * 1e3, "us"),
      ("assignment.refresh_ms", mean(refreshes.map(_.durNs / 1e6)), "ms"),
      ("assignment.refresh_jobs", mean(refreshJobs), "count"),
      ("assignment.checkpoints", refreshes.size.toDouble / nPasses, "count"))

    val passJobs = jobs.filter(j => under(j.span, "pass"))
    val passStages = stages.filter(s => under(s.span, "pass"))
    val inJobMs = Tracer.inJobMs(passJobs).toDouble / nPasses
    val spark = Seq(
      ("spark.jobs", passJobs.size.toDouble / nPasses, "count"),
      ("spark.stages", passStages.size.toDouble / nPasses, "count"),
      ("spark.tasks", passStages.map(_.tasks).sum.toDouble / nPasses, "count"),
      ("spark.task_run_ms", passStages.map(_.taskRunMs).sum.toDouble / nPasses, "ms"),
      ("spark.in_job_ms", inJobMs, "ms"),
      ("spark.driver_ms", mean(passes.map(_.durNs / 1e6)) - inJobMs, "ms"))

    tcrowd ++ baselines.flatMap(b => layer(s"baselines.$b", "infer")) ++
      layer("metrics", "evaluate") ++ layer("correlation", "estimate") ++
      Seq(("model.ingest_ms", callMs("model.ingest"), "ms"),
          ("model.stats_ms", callMs("model.stats"), "ms")) ++
      assignment ++ spark ++
      Seq(("jvm.gc_ms", gcMsPerPass, "ms"), ("trace.wall_s", wallS, "s"))
  }
}
