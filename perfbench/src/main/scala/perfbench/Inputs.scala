package perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.crowd.CrowdSim
import scala.util.Random

/** A simulated crowd whose worker and row ids are permuted by the run seed.
  *
  * The latent crowd (truth, worker qualities, which worker answers which
  * row) is the simulator's fixed draw, so error rate and MNAD stay
  * comparable between seeds and with `bench_results/`; the seed changes the
  * ids the program sees, and with them hash partitioning, map iteration and
  * tie-breaking order. Seed 0 keeps the original ids.
  */
final class Inputs(sim: CrowdSim, seed: Long) {
  private def perm(n: Int, salt: Long): Array[Int] =
    if (seed == 0) Array.range(0, n)
    else new Random(seed * 1000003L + salt).shuffle((0 until n).toVector).toArray

  private val workerId: Array[Int] = perm(sim.cfg.numWorkers, 1L)
  private val rowId: Array[Int] = perm(sim.cfg.numRows, 2L)

  def name: String = sim.cfg.name
  def columns: Seq[ColumnSpec] = sim.columnSpecs
  def labelCount: Map[Int, Int] = columns.map(c => c.col -> c.numLabels).toMap

  /** The static AMT-style answers, under the permuted ids. */
  def answers: Seq[Answer] =
    sim.allAnswers.map(a => Answer(workerId(a.worker), rowId(a.row), a.col, a.value))

  def truth: Seq[TruthCell] = sim.allTruth.map(t => t.copy(row = rowId(t.row)))

  /** The answers as the program's DataFrame relations (not cached). */
  def dataset(spark: SparkSession, answers: Seq[Answer]): CrowdDataset =
    CrowdDataset(name, Model.answersDf(spark, answers), columns, Model.truthDf(spark, truth))
}
