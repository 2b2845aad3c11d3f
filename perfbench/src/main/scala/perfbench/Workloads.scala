package perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.crowd.{CrowdSim, Surrogates}
import repro.experiments.Experiments
import repro.metrics.Metrics
import scala.collection.mutable

/** What a workload shares with the harness: Spark, the tracer, the seed and
  * the counters that only the benchmark's own call sites can see.
  */
final class Ctx(val spark: SparkSession, val tracer: Tracer, val seed: Long,
                val table7Ref: Map[(String, String), (String, String)]) {
  val tcrowdRuns = mutable.ArrayBuffer.empty[TCrowdResult]
  var candidates = 0L

  def tcrowd(ds: CrowdDataset, cfg: TCrowdConfig): TCrowdResult = {
    val r = tracer.span("tcrowd.infer")(TCrowd.infer(ds, cfg))
    tcrowdRuns += r
    r
  }

  def evaluate(ds: CrowdDataset, est: Seq[TruthCell]): (Double, Double) =
    tracer.span("metrics.evaluate")(Metrics.evaluate(ds, est))

  /** Answers as the program's cached relation, plus its column statistics. */
  def ingest(in: Inputs, answers: Seq[Answer]): CrowdDataset = {
    val ds = tracer.span("model.ingest") {
      val d = in.dataset(spark, answers)
      d.answers.cache().count()
      d
    }
    tracer.span("model.stats")(Model.continuousStats(ds))
    ds
  }
}

/** Latency of one operation (inference call, refresh or checkpoint) and
  * the output check it failed, if any.
  */
final case class Op(ms: Double, failure: Option[String] = None)

/** A pass after its timing ended: its operations, the checks of the pass as
  * a whole (each counts as one more operation; `Some` is a failure), the
  * error rate and MNAD of its estimates, and per-method scores.
  */
final case class Finished(ops: Seq[Op], errorRate: Double, mnad: Double,
                          checks: Seq[Option[String]] = Nil,
                          scores: Map[String, (Double, Double)] = Map.empty)

/** What a pass returns: `finish` runs after the pass's timing ends, so
  * output checks and scoring stay out of `wall_s`.
  */
final case class PassResult(finish: () => Finished)

trait Workload {
  def why: String
  /** Set-ups per run; `setup_s` is their median. */
  def setupReps: Int = 3
  /** Input generation, caching and warm state; timed as `setup_s`. */
  def setup(): Unit
  /** One pass of the measured work; timed as `wall_s`. There is no
    * warmup: the first pass on the run's JVM is measured.
    */
  def pass(): PassResult
  def release(): Unit
}

object Workload {
  def apply(name: String, ctx: Ctx): Workload = name match {
    case "table7"        => new Table7Workload(ctx)
    case "scale"         => new ScaleWorkload(ctx)
    case "online-struct" => new OnlineStructWorkload(ctx)
    case other           => throw new IllegalArgumentException(s"unknown workload $other")
  }

  def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  def answeredCells(answers: Seq[Answer]): Set[(Int, Int)] =
    answers.iterator.map(a => (a.row, a.col)).toSet
}

/** Table 7 on the Restaurant surrogate: T-Crowd and the eight baselines,
  * each followed by `Metrics.evaluate`. Many small inferences, so the Spark
  * job count dominates; the only workload that runs the baselines.
  *
  * No warmup: running every method once with its iterations cut to two cost
  * 15 s and left the pass within 4% of a pass on a cold JVM.
  */
final class Table7Workload(ctx: Ctx) extends Workload {
  val why = "Table 7 (paper's headline artifact): many small inferences whose cost is " +
    "Spark job count; the only workload running the baselines"
  private val in = new Inputs(new CrowdSim(Surrogates.restaurantConfig()), ctx.seed)
  private val cfg = Experiments.benchCfg
  private val layer = Map("T-Crowd" -> "tcrowd", "CRH" -> "baselines.crh",
    "CATD" -> "baselines.catd", "Maj. Voting" -> "baselines.mv", "EM" -> "baselines.ds",
    "GLAD" -> "baselines.glad", "Zencrowd" -> "baselines.zencrowd",
    "Median" -> "baselines.median", "GTM" -> "baselines.gtm")
  private val catCols = in.columns.filter(_.isCategorical).map(_.col).toSet
  private val contCols = in.columns.filter(_.isContinuous).map(_.col).toSet

  /** Table 7's methods with the columns each one estimates. The restricted
    * T-Crowd variants run the same code as T-Crowd and are left out.
    */
  private val methods: Seq[(InferenceMethod, Set[Int])] =
    (Experiments.heterogeneousMethods(cfg).map(_ -> (catCols ++ contCols)) ++
      Experiments.categoricalMethods(cfg).map(_ -> catCols) ++
      Experiments.continuousMethods(cfg).map(_ -> contCols))
      .filter { case (m, _) => layer.contains(m.name) }

  private var answers: Seq[Answer] = Nil
  private var ds: CrowdDataset = _

  /** A set-up takes about 0.5 s, so five cost little and steady the median. */
  override val setupReps = 5
  def setup(): Unit = {
    answers = in.answers
    ds = ctx.ingest(in, answers)
  }

  def pass(): PassResult = {
    val runs = methods.map { case (m, cols) =>
      val t0 = System.nanoTime()
      val est = m match {
        case TCrowdMethod(c) => ctx.tcrowd(ds, c).estimatesLocal
        case _               => ctx.tracer.span(layer(m.name) + ".infer")(m.infer(ds))
      }
      val (er, mn) = ctx.evaluate(ds, est)
      (m.name, cols, est, er, mn, Workload.ms(t0))
    }
    PassResult { () =>
      val answered = Workload.answeredCells(answers)
      // Every score is checked on every seed: the seed only permutes ids,
      // and no method's score has been seen to change with it.
      val ops = runs.map { case (name, cols, est, er, mn, ms) =>
        val failure = Checks.estimates(est, answered.filter(c => cols.contains(c._2)), in.labelCount)
          .orElse(Checks.table7(ctx.table7Ref, name, in.name, er, mn))
        Op(ms, failure.map(f => s"$name: $f"))
      }
      val (_, _, _, er, mn, _) = runs.find(_._1 == "T-Crowd").get
      Finished(ops, er, mn, scores = runs.map(r => r._1 -> (r._4, r._5)).toMap)
    }
  }

  def release(): Unit = if (ds != null) ds.answers.unpersist()
}

/** One EM refresh on a large table (Fig 12's linear-cost claim):
  * `TCrowd.infer` and then `Correlation.estimate` on 32,000 answers, the two
  * calls `Assignment.simulate` makes at every checkpoint. Here per-answer
  * work, not the Spark job count, dominates. No assignment, no baselines;
  * one operation, the refresh.
  */
final class ScaleWorkload(ctx: Ctx) extends Workload {
  val why = "Fig 12 linear-cost claim: one EM refresh (inference, correlation) on 32,000 " +
    "answers, where per-answer work, not job count, dominates"
  private val in = new Inputs(new CrowdSim(
    Experiments.sweepConfig(m = 4, r = 0.5, difficulty = 1.0).copy(name = "scale", numRows = 1600)),
    ctx.seed)
  private val cfg = Experiments.benchCfg
  private var answers: Seq[Answer] = Nil
  private var ds: CrowdDataset = _

  def setup(): Unit = {
    answers = in.answers
    ds = ctx.ingest(in, answers)
  }

  def pass(): PassResult = {
    val t0 = System.nanoTime()
    val res = ctx.tcrowd(ds, cfg)
    val corr = ctx.tracer.span("correlation.estimate")(Correlation.estimate(ds, res))
    val ms = Workload.ms(t0)
    PassResult { () =>
      val est = res.estimatesLocal
      val (er, mn) = ctx.evaluate(ds, est)
      Finished(Seq(Op(ms, Checks.estimates(est, Workload.answeredCells(answers), in.labelCount))),
        er, mn, checks = Seq(Option.when(corr.marginal.isEmpty)("correlation model is empty")))
    }
  }

  def release(): Unit = if (ds != null) ds.answers.unpersist()
}

/** The Fig 5 / Fig 2 T-Crowd loop, cut to fit the run budget:
  * `Assignment.simulate` with the structure-aware strategy on 48 Restaurant
  * rows, checkpoints at 1.0, 1.5 and 2.0 answers per task, behind a
  * delegating wrapper that times picks and the refresh gaps between them.
  * An operation is one checkpoint (the refresh gap).
  *
  * `simulate` draws the crowd, its answers and arrivals from the final
  * `CrowdSim` it is given, so ids cannot be permuted from outside, and
  * another crowd seed moves T-Crowd's error rate by up to a factor of three.
  * Every seed therefore runs the Fig 5 crowd (simulator seed 11).
  *
  * No warmup: any warmup pays the JVM's cold Spark start, which costs about
  * as much as it saves in the pass.
  */
final class OnlineStructWorkload(ctx: Ctx) extends Workload {
  val why = "Fig 5 / Fig 2 online loop: EM refreshes at each checkpoint dominate; " +
    "where warm starts, Spark per-job overhead and Correlation.estimate show"
  private val simCfg = Experiments.onlineConfig(48)
  private val runCfg = SimRunConfig(maxAvgAnswers = 2.0, checkpointEvery = 0.5,
    tcrowd = TCrowdConfig(maxIters = 6, gdSteps = 3))
  private var sim: CrowdSim = _

  /** The simulator, and its static answers loaded as the program's cached
    * relation with their column statistics, as on the other workloads.
    * `simulate` takes only the simulator, so the loop does not read this
    * relation; it gives `setup_s` the same layers everywhere. Building the
    * simulator alone takes 1-2 ms, and runs settled at two speeds 1.7 times
    * apart, too unsteady for a bound.
    */
  private var static: CrowdDataset = _
  /** Set-ups still got faster up to the fifth; the median of nine is past that. */
  override val setupReps = 9
  def setup(): Unit = {
    sim = new CrowdSim(simCfg)
    val in = new Inputs(sim, 0L)
    static = ctx.ingest(in, in.answers)
  }

  def pass(): PassResult = {
    val strategy = new TimedStrategy(new StructGainStrategy, ctx)
    val points = Assignment.simulate(sim, ctx.spark, strategy, runCfg)
    val refreshes = strategy.finish()
    PassResult { () =>
      val scores = points.flatMap(p => Seq(p.errorRate, p.mnad))
      Finished(refreshes.map(Op(_)),
        points.map(_.errorRate).sum / points.size, points.map(_.mnad).sum / points.size,
        checks = Seq(
          strategy.failures.headOption.map(f => s"${strategy.failures.size} picks failed: $f"),
          Option.when(points.isEmpty || points.last.avgAnswersPerTask < runCfg.maxAvgAnswers)(
            s"loop stopped at ${points.lastOption.map(_.avgAnswersPerTask)} answers per task"),
          Option.when(scores.exists(x => x.isNaN || x.isInfinite || x < 0))(
            s"checkpoint scores not finite and non-negative: $scores")))
    }
  }

  def release(): Unit = if (static != null) static.answers.unpersist()
}

/** Delegates to `inner`, timing each pick and each gap between picks. A gap
  * longer than `RefreshGapMs` held a checkpoint (EM refresh, correlation,
  * metrics); with tracing on it is recorded as an `assignment.refresh` span
  * and its Spark jobs carry the gap's tag. A shorter gap from `observe` to
  * the next pick is recorded as `assignment.apply`: `simulate` applies each
  * answer to the snapshot (`Snapshot.applyAnswer`) right after observing it,
  * so the span holds that update and the loop's bookkeeping.
  */
final class TimedStrategy(inner: AssignStrategy, ctx: Ctx) extends AssignStrategy {
  /** A pick and the simulator's bookkeeping take well under a millisecond;
    * a refresh runs Spark jobs and takes seconds.
    */
  private val RefreshGapMs = 20.0

  def name: String = inner.name
  override def needsSnapshot: Boolean = inner.needsSnapshot
  override def needsCorrelation: Boolean = inner.needsCorrelation
  override def observe(u: Int, i: Int, j: Int, value: Double): Unit = {
    inner.observe(u, i, j, value)
    observedAt = System.nanoTime()
  }

  private var observedAt = 0L
  private var gapStart = System.nanoTime()
  private var gaps = 0
  ctx.tracer.tag("gap0")
  private val refreshMs = mutable.ArrayBuffer.empty[Double]
  val failures = mutable.ArrayBuffer.empty[String]

  private def closeGap(now: Long): Unit = {
    val ms = (now - gapStart) / 1e6
    if (ms > RefreshGapMs) {
      refreshMs += ms
      ctx.tracer.record("assignment.refresh", gapStart, now, tag = s"gap$gaps")
    }
    gaps += 1
  }

  def pick(st: AssignState, u: Int): Option[(Int, Int)] = {
    val now = System.nanoTime()
    closeGap(now)
    if (observedAt > 0 && (now - observedAt) / 1e6 <= RefreshGapMs)
      ctx.tracer.record("assignment.apply", observedAt, now, tag = "")
    observedAt = 0L
    if (ctx.tracer.enabled) ctx.candidates += st.availableCells(u).size
    val got = ctx.tracer.span("assignment.pick")(inner.pick(st, u))
    if (got.isEmpty && st.availableCells(u).hasNext) failures += s"worker $u got no task"
    gapStart = System.nanoTime()
    ctx.tracer.tag(s"gap$gaps")
    got
  }

  /** Close the last gap (the final checkpoint); the refresh latencies. */
  def finish(): Seq[Double] = {
    closeGap(System.nanoTime())
    ctx.tracer.tag(null)
    refreshMs.toSeq
  }
}
