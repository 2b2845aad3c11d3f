package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.MathUtil._
import scala.collection.immutable.ArraySeq

/** Configuration of the T-Crowd EM truth-inference algorithm (paper §4).
  *
  * @param eps       half-width of the "close enough" band that maps a
  *                  variance to a quality `q_u = erf(eps/sqrt(2 phi))`;
  *                  interpreted in z-normalized answer space (DESIGN.md §6)
  * @param maxIters  cap on EM iterations (paper observes w < 20)
  * @param gdSteps   gradient-ascent steps per M-step (paper observes v < 20;
  *                  a handful suffice because the E-step re-centers targets)
  * @param lr        gradient-ascent learning rate on log-parameters
  * @param tol       EM convergence threshold on max log-parameter change
  * @param priorVar  variance `phi_j^0` of the per-column truth prior in
  *                  normalized space (mean is 0 by construction)
  * @param learnDifficulty when false, row/column difficulties are pinned at 1
  *                  (used by ablations and by unit tests isolating phi)
  */
final case class TCrowdConfig(
    eps: Double = 1.0,
    maxIters: Int = 15,
    gdSteps: Int = 5,
    lr: Double = 0.4,
    tol: Double = 5e-3,
    priorVar: Double = 4.0,
    learnDifficulty: Boolean = true,
)

/** Output of T-Crowd inference.
  *
  * Posteriors are kept as driver-side snapshots (the paper's tables are a
  * few thousand cells) because the assignment module (paper §5) needs
  * constant-time per-cell lookups when scoring candidate tasks; `estimates`
  * re-exposes the point estimates as a DataFrame for the metric aggregations.
  *
  * @param contPosterior (row,col) -> (mu, var) of the truth posterior in
  *                      normalized space
  * @param catPosterior  (row,col) -> label distribution (index = label)
  * @param phi           worker variance (normalized space)
  * @param alpha         row difficulty, geometric mean 1
  * @param beta          column difficulty, geometric mean 1
  * @param contStats     per-column (mean, std) used for normalization
  */
final case class TCrowdResult(
    estimatesLocal: Seq[TruthCell],
    contPosterior: Map[(Int, Int), (Double, Double)],
    catPosterior: Map[(Int, Int), Array[Double]],
    phi: Map[Int, Double],
    alpha: Map[Int, Double],
    beta: Map[Int, Double],
    contStats: Map[Int, (Double, Double)],
    eps: Double,
    iterations: Int,
    converged: Boolean,
) {
  /** Unified worker quality `q_u = erf(eps/sqrt(2 phi_u))` (paper Eq. 2). */
  def workerQuality: Map[Int, Double] = phi.map { case (u, p) => u -> quality(eps, p) }

  /** Per-cell quality `q_ij^u = erf(eps/sqrt(2 alpha_i beta_j phi_u))`. */
  def cellQuality(u: Int, row: Int, colIdx: Int): Double =
    quality(eps, cellVariance(u, row, colIdx))

  /** Answer variance `alpha_i * beta_j * phi_u` of worker u on a cell. */
  def cellVariance(u: Int, row: Int, colIdx: Int): Double =
    alpha.getOrElse(row, 1.0) * beta.getOrElse(colIdx, 1.0) * phi.getOrElse(u, 1.0)

  /** Point estimates as a DataFrame `(row, col, est)` for metric joins. */
  def estimates(spark: SparkSession): DataFrame =
    Model.truthDf(spark, estimatesLocal).withColumnRenamed("value", "est")
}

/** T-Crowd truth inference (paper §4): EM over a unified worker model.
  *
  * Execution (DESIGN.md §6): the answer relation is collected once and
  * sorted by (row, col, worker, value), so the result does not depend on the
  * input's order or partitioning. Worker, row and column ids are remapped
  * to `0..n-1` and the answers held as primitive arrays; a cell's answers are
  * contiguous, so cells are offsets into those arrays. The E-step and every
  * M-step gradient step are plain loops over them. An inference therefore
  * runs two Spark jobs (the collect and `Model.continuousStats`) whatever its
  * iteration count.
  */
object TCrowd {

  private val answerOrder: Ordering[Answer] =
    Ordering.by((a: Answer) => (a.row, a.col, a.worker))
      .orElse(Ordering.Double.TotalOrdering.on[Answer](_.value))

  def infer(ds: CrowdDataset, cfg: TCrowdConfig = TCrowdConfig()): TCrowdResult = {
    val stats   = Model.continuousStats(ds)
    val answers = ds.answers.select("worker", "row", "col", "value").collect()
      .map(r => Answer(r.getInt(0), r.getInt(1), r.getInt(2), r.getDouble(3)))
      .sorted(answerOrder)
    val n = answers.length

    // --- dense ids and z-normalized values --------------------------------
    // Sorted distinct ids and, per answer, its index into them.
    def dense(ids: Array[Int]): (Array[Int], Array[Int]) = {
      val uniq = ids.distinct.sorted
      val idx  = uniq.zipWithIndex.toMap
      (uniq, ids.map(idx))
    }
    val (workerIds, aw) = dense(answers.map(_.worker))
    val (rowIds, ar)    = dense(answers.map(_.row))
    val colIds = ds.columns.map(_.col).toArray
    val labels = ds.columns.map(_.numLabels).toArray // 0 = continuous
    val colIdx = colIds.zipWithIndex.toMap
    val ac = answers.map(a => colIdx.getOrElse(a.col,
      throw new IllegalArgumentException(s"answer on column ${a.col}, not in ${ds.name}'s columns")))
    val av = answers.map { a =>
      stats.get(a.col) match {
        case Some((mu, sd)) => (a.value - mu) / sd
        case None           => a.value
      }
    }
    // Cell k holds the answers cellStart(k) until cellStart(k + 1).
    val cellStart = (0 until n).filter(a => a == 0 || ar(a) != ar(a - 1) || ac(a) != ac(a - 1))
      .toArray :+ n
    val nCells = cellStart.length - 1
    def cellLabels(k: Int): Int = labels(ac(cellStart(k)))

    val lnPhi   = new Array[Double](workerIds.length)
    val lnAlpha = new Array[Double](rowIds.length)
    val lnBeta  = new Array[Double](colIds.length)
    def lnS(a: Int): Double = lnAlpha(ar(a)) + lnBeta(ac(a)) + lnPhi(aw(a))

    // --- E-step -----------------------------------------------------------
    // Continuous: Gaussian posterior with precision weights 1/(alpha beta phi)
    // plus the N(0, priorVar) column prior. Categorical: per-label log-score
    // sum of ln q - ln((1-q)/(L-1)) over supporting answers, softmax over the
    // full label set (unvoted labels score 0 relative — see paper Eq. 4).
    val postMu  = new Array[Double](nCells)
    val postVar = new Array[Double](nCells)
    val postCat = new Array[Array[Double]](nCells)
    def eStep(): Unit = {
      var k = 0
      while (k < nCells) {
        val l = cellLabels(k)
        var a = cellStart(k)
        if (l > 0) {
          val score = new Array[Double](l)
          while (a < cellStart(k + 1)) {
            val q = quality(cfg.eps, math.exp(lnS(a)))
            score(av(a).toInt) += math.log(q) - math.log((1.0 - q) / (l - 1))
            a += 1
          }
          postCat(k) = softmax(ArraySeq.unsafeWrapArray(score)).toArray
        } else {
          var sw = 0.0; var swv = 0.0
          while (a < cellStart(k + 1)) {
            val w = math.exp(-lnS(a))
            sw += w; swv += w * av(a)
            a += 1
          }
          postVar(k) = 1.0 / (sw + 1.0 / cfg.priorVar)
          postMu(k) = swv * postVar(k)
        }
        k += 1
      }
    }

    // --- M-step -----------------------------------------------------------
    // Per-answer sufficient statistic, fixed given the posteriors:
    //   continuous: s = (a - T_mu)^2 + T_phi       (paper Eq. 5 term)
    //   categorical: s = posterior prob of the answered label
    val stat = new Array[Double](n)
    def fillStats(): Unit = {
      var k = 0
      while (k < nCells) {
        var a = cellStart(k)
        while (a < cellStart(k + 1)) {
          stat(a) =
            if (cellLabels(k) > 0) postCat(k)(av(a).toInt)
            else { val d = av(a) - postMu(k); d * d + postVar(k) }
          a += 1
        }
        k += 1
      }
    }
    def counts(ids: Array[Int], size: Int): Array[Int] = {
      val c = new Array[Int](size); ids.foreach(k => c(k) += 1); c
    }
    val nW = counts(aw, lnPhi.length); val nR = counts(ar, lnAlpha.length)
    val nC = counts(ac, lnBeta.length)

    // One gradient-ascent step on ln(phi), ln(alpha), ln(beta): each moves by
    // lr times the mean gradient of its answers, all taken at the pre-step
    // parameters. Returns the largest single-parameter change.
    def gradientStep(): Double = {
      val gW = new Array[Double](lnPhi.length)
      val gR = new Array[Double](lnAlpha.length)
      val gC = new Array[Double](lnBeta.length)
      var a = 0
      while (a < n) {
        // d/d lnS of the expected log-likelihood of one answer; identical for
        // ln(phi_u), ln(alpha_i), ln(beta_j) since lnS is their sum.
        val sVar = math.exp(lnS(a))
        val s = stat(a)
        val g =
          if (labels(ac(a)) > 0) {
            val x  = cfg.eps / math.sqrt(2.0 * sVar)
            val q  = quality(cfg.eps, sVar)
            val dq = -x * math.exp(-x * x) / math.sqrt(math.Pi)
            (s / q - (1.0 - s) / (1.0 - q)) * dq
          } else -0.5 + s / (2.0 * sVar)
        gW(aw(a)) += g; gR(ar(a)) += g; gC(ac(a)) += g
        a += 1
      }
      var maxDelta = 0.0
      def upd(p: Array[Double], gs: Array[Double], cnt: Array[Int], lo: Double, hi: Double): Unit = {
        var k = 0
        while (k < p.length) {
          val g  = if (cnt(k) > 0) gs(k) / cnt(k) else 0.0
          val nv = math.min(hi, math.max(lo, p(k) + cfg.lr * g))
          maxDelta = math.max(maxDelta, math.abs(nv - p(k)))
          p(k) = nv
          k += 1
        }
      }
      upd(lnPhi, gW, nW, -8.0, 3.0)
      if (cfg.learnDifficulty) {
        upd(lnAlpha, gR, nR, -2.5, 2.5)
        upd(lnBeta, gC, nC, -2.5, 2.5)
      }
      maxDelta
    }

    eStep()

    // --- EM loop ----------------------------------------------------------
    var iter = 0
    var converged = false
    while (iter < cfg.maxIters && !converged) {
      fillStats()
      var maxDelta = 0.0
      for (_ <- 0 until cfg.gdSteps) maxDelta = math.max(maxDelta, gradientStep())

      // Identifiability: alpha*beta*phi is scale-degenerate; re-center row and
      // column difficulties to geometric mean 1 and fold the shift into phi
      // (leaves every alpha_i*beta_j*phi_u product unchanged).
      if (cfg.learnDifficulty && lnAlpha.nonEmpty && lnBeta.nonEmpty) {
        val ma = lnAlpha.sum / lnAlpha.length
        val mb = lnBeta.sum / lnBeta.length
        lnAlpha.mapInPlace(_ - ma)
        lnBeta.mapInPlace(_ - mb)
        lnPhi.mapInPlace(v => math.min(3.0, math.max(-8.0, v + ma + mb)))
      }

      eStep()
      iter += 1
      converged = maxDelta < cfg.tol
    }

    // --- results keyed by the original ids (continuous denormalized) ------
    val (catCells, contCells) = (0 until nCells).partition(cellLabels(_) > 0)
    def cell(k: Int): (Int, Int) = (answers(cellStart(k)).row, answers(cellStart(k)).col)
    val est =
      contCells.map { k =>
        val (i, j) = cell(k)
        val (m, sd) = stats(j)
        TruthCell(i, j, postMu(k) * sd + m)
      } ++
      catCells.map { k =>
        val (i, j) = cell(k)
        val probs = postCat(k)
        TruthCell(i, j, probs.indices.maxBy(probs.apply).toDouble)
      }
    def expBy(ids: Array[Int], ln: Array[Double]): Map[Int, Double] =
      ids.indices.map(k => ids(k) -> math.exp(ln(k))).toMap

    TCrowdResult(est,
      contCells.map(k => cell(k) -> (postMu(k), postVar(k))).toMap,
      catCells.map(k => cell(k) -> postCat(k)).toMap,
      expBy(workerIds, lnPhi), expBy(rowIds, lnAlpha), expBy(colIds, lnBeta),
      stats, cfg.eps, iter, converged)
  }

  /** TC-onlyCate of Table 7: T-Crowd restricted to categorical columns. */
  def inferOnlyCategorical(ds: CrowdDataset, cfg: TCrowdConfig = TCrowdConfig()): TCrowdResult =
    infer(ds.restrictTo(ds.categoricalCols, "onlyCate"), cfg)

  /** TC-onlyCont of Table 7: T-Crowd restricted to continuous columns. */
  def inferOnlyContinuous(ds: CrowdDataset, cfg: TCrowdConfig = TCrowdConfig()): TCrowdResult =
    infer(ds.restrictTo(ds.continuousCols, "onlyCont"), cfg)
}
