package repro.core

import java.util.UUID
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.TestListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.CrowdSpec
import repro.crowd.{CrowdSim, SimColumn, SimConfig, Surrogates}
import repro.metrics.Metrics
import scala.io.Source

/** Detailed behaviour of the T-Crowd EM algorithm (paper §4). */
class TCrowdSpec extends CrowdSpec {

  private lazy val sim = new CrowdSim(SimConfig(
    name = "tcrowd",
    numRows = 40,
    columns = Seq(
      SimColumn("cat6", numLabels = 6),
      SimColumn("cat3", numLabels = 3),
      SimColumn("u", 0, lo = 0, hi = 1000),
      SimColumn("v", 0, lo = -5, hi = 5),
    ),
    numWorkers = 18,
    answersPerTask = 5,
    seed = 77L,
  ))
  private lazy val ds = sim.dataset(spark)
  private lazy val res = TCrowd.infer(ds, TCrowdConfig(maxIters = 10, gdSteps = 4))

  test("categorical posteriors are distributions over the full label set") {
    res.catPosterior.foreach { case ((_, j), p) =>
      val l = if (j == 0) 6 else 3
      assert(p.length == l)
      assert(math.abs(p.sum - 1.0) < 1e-9)
      assert(p.forall(x => x >= 0 && x <= 1))
    }
  }

  test("continuous posteriors have positive variance") {
    res.contPosterior.values.foreach { case (_, tphi) => assert(tphi > 0) }
  }

  test("worker qualities are probabilities") {
    res.workerQuality.values.foreach(q => assert(q > 0 && q < 1))
  }

  test("row and column difficulties are positive with geometric mean 1") {
    assert(res.alpha.values.forall(_ > 0))
    assert(res.beta.values.forall(_ > 0))
    val ga = res.alpha.values.map(math.log).sum / res.alpha.size
    val gb = res.beta.values.map(math.log).sum / res.beta.size
    assert(math.abs(ga) < 1e-6)
    assert(math.abs(gb) < 1e-6)
  }

  test("cellVariance is the alpha*beta*phi product") {
    val u = res.phi.keys.head
    val i = res.alpha.keys.head
    val j = res.beta.keys.head
    val expected = res.alpha(i) * res.beta(j) * res.phi(u)
    assert(math.abs(res.cellVariance(u, i, j) - expected) < 1e-12)
  }

  test("cellQuality decreases with row difficulty") {
    val u = res.phi.keys.head
    val j = res.beta.keys.head
    val easy = res.alpha.minBy(_._2)._1
    val hard = res.alpha.maxBy(_._2)._1
    assert(res.cellQuality(u, easy, j) >= res.cellQuality(u, hard, j))
  }

  test("estimates cover all cells once") {
    val keys = res.estimatesLocal.map(t => (t.row, t.col))
    assert(keys.size == 160)
    assert(keys.distinct.size == 160)
  }

  test("estimates DataFrame is (row, col, est)") {
    val df = res.estimates(spark)
    assert(df.columns.toSeq == Seq("row", "col", "est"))
    assert(df.count() == 160)
  }

  test("categorical estimates stay in label domain") {
    res.estimatesLocal.filter(_.col <= 1).foreach { t =>
      val l = if (t.col == 0) 6 else 3
      assert(t.value >= 0 && t.value < l)
    }
  }

  test("continuous estimates are denormalized back to the raw scale") {
    val colU = res.estimatesLocal.filter(_.col == 2).map(_.value)
    // domain is [0, 1000]; z-space values would be ~N(0,1)
    assert(colU.max > 50.0)
  }

  test("estimated row difficulty correlates with simulated difficulty") {
    val common = res.alpha.keySet.intersect(sim.rowAlpha.keySet).toSeq
    val c = MathUtil.pearson(common.map(i => math.log(sim.rowAlpha(i))),
                             common.map(i => math.log(res.alpha(i))))
    info(f"corr(log true alpha, log est alpha) = $c%.3f")
    assert(c > 0.2)
  }

  test("inference is deterministic") {
    val res2 = TCrowd.infer(ds, TCrowdConfig(maxIters = 10, gdSteps = 4))
    assert(res.estimatesLocal.toSet == res2.estimatesLocal.toSet)
    assert(res.phi == res2.phi)
  }

  test("onlyCate restriction estimates only categorical cells") {
    val r = TCrowd.inferOnlyCategorical(ds, TCrowdConfig(maxIters = 6, gdSteps = 3))
    assert(r.estimatesLocal.size == 80)
    assert(r.estimatesLocal.forall(_.col <= 1))
  }

  test("onlyCont restriction estimates only continuous cells") {
    val r = TCrowd.inferOnlyContinuous(ds, TCrowdConfig(maxIters = 6, gdSteps = 3))
    assert(r.estimatesLocal.size == 80)
    assert(r.estimatesLocal.forall(_.col >= 2))
  }

  test("full T-Crowd is at least as good as its restricted variants") {
    val cfg = TCrowdConfig(maxIters = 10, gdSteps = 4)
    val full = res
    val cate = TCrowd.inferOnlyCategorical(ds, cfg)
    val cont = TCrowd.inferOnlyContinuous(ds, cfg)
    val erFull = Metrics.errorRate(ds, full.estimatesLocal)
    val erCate = Metrics.errorRate(ds, cate.estimatesLocal)
    val mnFull = Metrics.mnad(ds, full.estimatesLocal)
    val mnCont = Metrics.mnad(ds, cont.estimatesLocal)
    info(f"error full=$erFull%.4f onlyCate=$erCate%.4f; mnad full=$mnFull%.4f onlyCont=$mnCont%.4f")
    // unified quality transfers knowledge across datatypes (paper Table 7)
    assert(erFull <= erCate + 0.02)
    assert(mnFull <= mnCont + 0.02)
  }

  test("more answers per task tighten the continuous posteriors") {
    val simDense = new CrowdSim(sim.cfg.copy(answersPerTask = 10, name = "dense"))
    val dense = TCrowd.infer(simDense.dataset(spark), TCrowdConfig(maxIters = 6, gdSteps = 3))
    val sparse = TCrowd.infer(
      new CrowdSim(sim.cfg.copy(answersPerTask = 2, name = "sparse")).dataset(spark),
      TCrowdConfig(maxIters = 6, gdSteps = 3))
    def avgVar(r: TCrowdResult) = r.contPosterior.values.map(_._2).sum / r.contPosterior.size
    info(f"avg posterior var: dense=${avgVar(dense)}%.4f sparse=${avgVar(sparse)}%.4f")
    assert(avgVar(dense) < avgVar(sparse))
  }

  test("learnDifficulty=false pins alpha and beta at 1") {
    val r = TCrowd.infer(ds, TCrowdConfig(maxIters = 4, gdSteps = 2, learnDifficulty = false))
    assert(r.alpha.values.forall(a => math.abs(a - 1.0) < 1e-12))
    assert(r.beta.values.forall(b => math.abs(b - 1.0) < 1e-12))
  }

  test("works on a dataset with a single answer per cell") {
    val tiny = new CrowdSim(SimConfig("single", 10,
      Seq(SimColumn("c", numLabels = 3), SimColumn("x", 0, 0, 10)),
      numWorkers = 5, answersPerTask = 1, seed = 3L)).dataset(spark)
    val r = TCrowd.infer(tiny, TCrowdConfig(maxIters = 4, gdSteps = 2))
    assert(r.estimatesLocal.size == 20)
  }

  test("iteration count respects maxIters") {
    val r = TCrowd.infer(ds, TCrowdConfig(maxIters = 3, gdSteps = 2))
    assert(r.iterations <= 3)
  }

  // ------------------------------------------------- kernel vs. reference

  // tcrowd-golden.tsv holds alpha/beta/phi and both posteriors from the
  // earlier DataFrame implementation of this EM (same model, one Spark
  // aggregation per E-step and per gradient step), at maxIters = 10,
  // gdSteps = 4 and tol = 0, so both run exactly 10 iterations. Datasets:
  // sim40 (this suite's `ds`), restaurant (the surrogate) and
  // sim40-col3-unanswered (`ds` without column 3's answers, which keeps a
  // never-answered column in beta). Lines are `dataset kind key... value...`
  // with kind iterations|phi|alpha|beta|cont|cat.
  private lazy val golden: Map[String, Seq[Array[String]]] = {
    val src = Source.fromResource("tcrowd-golden.tsv")
    try src.getLines().map(_.split('\t')).toSeq.groupBy(_(0)) finally src.close()
  }

  private def assertMatchesGolden(name: String, r: TCrowdResult): Unit = {
    val lines = golden(name)
    var worst = 0.0
    def close(got: Double, want: String, what: => String): Unit = {
      val d = math.abs(got - want.toDouble)
      worst = math.max(worst, d)
      assert(d <= 1e-9, s"$name $what: $got vs $want")
    }
    def count(kind: String) = lines.count(_(1) == kind)
    assert(r.phi.size == count("phi") && r.alpha.size == count("alpha") &&
           r.beta.size == count("beta") && r.contPosterior.size == count("cont") &&
           r.catPosterior.size == count("cat"))
    lines.foreach { f =>
      def key = (f(2).toInt, f(3).toInt)
      f(1) match {
        case "iterations" => assert(r.iterations == f(2).toInt)
        case "phi"        => close(r.phi(f(2).toInt), f(3), s"phi ${f(2)}")
        case "alpha"      => close(r.alpha(f(2).toInt), f(3), s"alpha ${f(2)}")
        case "beta"       => close(r.beta(f(2).toInt), f(3), s"beta ${f(2)}")
        case "cont" =>
          val (mu, tphi) = r.contPosterior(key)
          close(mu, f(4), s"mu $key"); close(tphi, f(5), s"tphi $key")
        case "cat" =>
          val p = r.catPosterior(key)
          assert(p.length == f.length - 4, s"labels of $key")
          p.indices.foreach(z => close(p(z), f(4 + z), s"p $key($z)"))
      }
    }
    info(f"$name: largest difference from the reference ${worst}%.2e")
  }

  private val goldenCfg = TCrowdConfig(maxIters = 10, gdSteps = 4, tol = 0.0)

  test("kernel matches the reference EM on the 40-row simulation to 1e-9") {
    assertMatchesGolden("sim40", TCrowd.infer(ds, goldenCfg))
  }

  test("kernel matches the reference EM on the Restaurant surrogate to 1e-9") {
    assertMatchesGolden("restaurant", TCrowd.infer(Surrogates.restaurant(spark), goldenCfg))
  }

  test("kernel matches the reference EM with a never-answered column to 1e-9") {
    assertMatchesGolden("sim40-col3-unanswered",
      TCrowd.infer(ds.copy(answers = ds.answers.filter("col != 3")), goldenCfg))
  }

  test("kernel stops at the reference EM's iteration under a tolerance") {
    // The reference converged on `ds` after these iterations (maxIters = 40,
    // gdSteps = 4). Its stop test uses the largest single gradient-step
    // change; at tol 0.15 counting the re-centering shift too would stop at 3.
    for ((tol, iters) <- Seq(0.15 -> 1, 2e-2 -> 10, 5e-3 -> 20)) {
      val r = TCrowd.infer(ds, TCrowdConfig(maxIters = 40, gdSteps = 4, tol = tol))
      assert(r.converged && r.iterations == iters, s"tol=$tol stopped after ${r.iterations}")
    }
  }

  /** Spark jobs started by `body`, counted under a job group of its own. */
  private def jobsOf(body: => Unit): Int = {
    val sc = spark.sparkContext
    val group = s"jobs-${UUID.randomUUID()}"
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty("spark.jobGroup.id") == group)
          jobs.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "job count")
      try body finally sc.clearJobGroup()
      TestListenerBus.drain(sc)
      jobs.get
    } finally sc.removeSparkListener(listener)
  }

  test("inference runs at most 2 Spark jobs whatever the iteration count") {
    for (iters <- Seq(2, 10)) {
      val n = jobsOf(TCrowd.infer(ds, TCrowdConfig(maxIters = iters, gdSteps = 4, tol = 0.0)))
      info(s"maxIters=$iters: $n jobs")
      assert(n >= 1 && n <= 2, s"maxIters=$iters ran $n jobs")
    }
  }

  test("result does not depend on answer order or partitioning") {
    val reversed = Model.answersDf(spark,
      ds.answers.collect().reverse.map(r => Answer(r.getInt(0), r.getInt(1), r.getInt(2), r.getDouble(3))).toSeq)
    def fields(r: TCrowdResult) = (r.estimatesLocal, r.contPosterior,
      r.catPosterior.map { case (k, p) => k -> p.toSeq }, r.phi, r.alpha, r.beta,
      r.contStats, r.iterations, r.converged)
    val base = fields(res)
    for (parts <- Seq(1, 7)) {
      val r = TCrowd.infer(ds.copy(answers = reversed.repartition(parts)),
                           TCrowdConfig(maxIters = 10, gdSteps = 4))
      assert(fields(r) == base, s"$parts partitions")
    }
  }
}
