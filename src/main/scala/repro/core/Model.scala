package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** One answer by one worker on one cell. Categorical values are encoded as
  * the label index (0-based) stored in `value`; continuous values are the raw
  * number. This single relation `(worker, row, col, value)` is what every
  * inference method consumes — exactly the information the paper's methods
  * see.
  */
final case class Answer(worker: Int, row: Int, col: Int, value: Double)

/** Ground-truth value of one cell (same encoding as [[Answer.value]]). */
final case class TruthCell(row: Int, col: Int, value: Double)

/** Schema of one column of the crowdsourced table.
  *
  * @param col          0-based column index
  * @param name         human-readable attribute name
  * @param numLabels    size of the label set for categorical columns; 0 for
  *                     continuous columns
  */
final case class ColumnSpec(col: Int, name: String, numLabels: Int) {
  require(numLabels == 0 || numLabels >= 2, s"categorical column needs >=2 labels, got $numLabels")
  def isCategorical: Boolean = numLabels > 0
  def isContinuous: Boolean  = !isCategorical
}

/** A crowdsourcing instance: the answer relation, the column schema, and
  * (when known — always, for synthetic data) the ground truth used only by
  * the evaluation metrics, never by inference.
  */
final case class CrowdDataset(
    name: String,
    answers: DataFrame, // worker:int, row:int, col:int, value:double
    columns: Seq[ColumnSpec],
    truth: DataFrame,   // row:int, col:int, value:double
) {
  def categoricalCols: Seq[ColumnSpec] = columns.filter(_.isCategorical)
  def continuousCols: Seq[ColumnSpec]  = columns.filter(_.isContinuous)
  def labelCount: Map[Int, Int]        = columns.map(c => c.col -> c.numLabels).toMap

  /** Restrict the instance to a subset of columns (used by the TC-onlyCate /
    * TC-onlyCont constrained variants of Table 7).
    */
  def restrictTo(cols: Seq[ColumnSpec], suffix: String): CrowdDataset = {
    val keep = cols.map(_.col).toSet
    CrowdDataset(
      s"$name-$suffix",
      answers.filter(col("col").isin(keep.toSeq: _*)),
      cols,
      truth.filter(col("col").isin(keep.toSeq: _*)),
    )
  }
}

object Model {
  val answerSchema: StructType = StructType(Seq(
    StructField("worker", IntegerType, nullable = false),
    StructField("row", IntegerType, nullable = false),
    StructField("col", IntegerType, nullable = false),
    StructField("value", DoubleType, nullable = false),
  ))

  val truthSchema: StructType = StructType(Seq(
    StructField("row", IntegerType, nullable = false),
    StructField("col", IntegerType, nullable = false),
    StructField("value", DoubleType, nullable = false),
  ))

  def answersDf(spark: SparkSession, answers: Seq[Answer]): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(
        answers.map(a => Row(a.worker, a.row, a.col, a.value)), numSlices = 4),
      answerSchema)

  def truthDf(spark: SparkSession, cells: Seq[TruthCell]): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(
        cells.map(t => Row(t.row, t.col, t.value)), numSlices = 4),
      truthSchema)

  /** Per-column mean/std of the *answers* of continuous columns, used to
    * z-normalize values so a single worker variance is meaningful across
    * columns of different scales (see DESIGN.md §6). Std is floored at 1e-9
    * so constant columns normalize to 0 rather than NaN. One Spark job: the
    * values are collected and summed locally in sorted order, so the
    * stats do not depend on the answers' order or partitioning.
    */
  def continuousStats(ds: CrowdDataset): Map[Int, (Double, Double)] = {
    val contCols = ds.continuousCols.map(_.col)
    if (contCols.isEmpty) return Map.empty
    ds.answers
      .filter(col("col").isin(contCols: _*))
      .select("col", "value")
      .collect()
      .groupMap(_.getInt(0))(_.getDouble(1))
      .map { case (c, values) =>
        val vs = values.sorted(Ordering.Double.TotalOrdering)
        val mu = vs.sum / vs.length
        val sd = math.sqrt(vs.map(v => (v - mu) * (v - mu)).sum / vs.length)
        c -> (mu, math.max(sd, 1e-9))
      }
  }
}
