package repro.core

import repro.CrowdSpec
import repro.Oracle

class ModelSpec extends CrowdSpec {

  private def tinyDs: CrowdDataset = {
    val cols = Seq(ColumnSpec(0, "cat", 3), ColumnSpec(1, "cont", 0))
    val answers = Seq(
      Answer(0, 0, 0, 1.0), Answer(1, 0, 0, 1.0), Answer(2, 0, 0, 2.0),
      Answer(0, 0, 1, 10.0), Answer(1, 0, 1, 14.0), Answer(2, 0, 1, 12.0),
      Answer(0, 1, 1, 20.0), Answer(1, 1, 1, 24.0),
    )
    val truth = Seq(TruthCell(0, 0, 1.0), TruthCell(0, 1, 12.0), TruthCell(1, 1, 22.0))
    CrowdDataset("tiny", Model.answersDf(spark, answers), cols, Model.truthDf(spark, truth))
  }

  test("ColumnSpec rejects a single-label categorical column") {
    intercept[IllegalArgumentException](ColumnSpec(0, "bad", 1))
  }

  test("ColumnSpec datatype predicates") {
    assert(ColumnSpec(0, "c", 4).isCategorical)
    assert(!ColumnSpec(0, "c", 4).isContinuous)
    assert(ColumnSpec(1, "x", 0).isContinuous)
  }

  test("answersDf round-trips rows") {
    val ds = tinyDs
    assert(ds.answers.count() == 8)
    assert(ds.answers.columns.toSeq == Seq("worker", "row", "col", "value"))
  }

  test("truthDf round-trips rows") {
    assert(tinyDs.truth.count() == 3)
  }

  test("categorical/continuous column split") {
    val ds = tinyDs
    assert(ds.categoricalCols.map(_.col) == Seq(0))
    assert(ds.continuousCols.map(_.col) == Seq(1))
    assert(ds.labelCount == Map(0 -> 3, 1 -> 0))
  }

  test("continuousStats computes per-column answer mean/std (oracle-checked)") {
    val ds = tinyDs
    val stats = Model.continuousStats(ds)
    assert(stats.keySet == Set(1))
    val (mu, sd) = stats(1)
    // DuckDB oracle on the same aggregation
    import org.apache.spark.sql.functions._
    val sparkAgg = ds.answers.filter(col("col") === 1)
      .groupBy("col")
      .agg(avg("value").as("mu"), stddev_pop(col("value")).as("sd"))
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT col, avg(CAST(value AS DOUBLE)) AS mu, stddev_pop(CAST(value AS DOUBLE)) AS sd " +
        "FROM answers WHERE col = '1' GROUP BY col",
      "answers" -> ds.answers)
    val agg = sparkAgg.collect().head
    assert(math.abs(mu - agg.getDouble(1)) < 1e-9 && math.abs(sd - agg.getDouble(2)) < 1e-9)
    assert(math.abs(mu - 16.0) < 1e-9)
    assert(sd > 0)
  }

  test("continuousStats is empty for all-categorical datasets") {
    val ds = tinyDs
    val catOnly = ds.restrictTo(ds.categoricalCols, "cat")
    assert(Model.continuousStats(catOnly).isEmpty)
  }

  test("restrictTo filters answers and truth") {
    val ds = tinyDs
    val catOnly = ds.restrictTo(ds.categoricalCols, "cat")
    assert(catOnly.answers.count() == 3)
    assert(catOnly.truth.count() == 1)
    assert(catOnly.name == "tiny-cat")
    val contOnly = ds.restrictTo(ds.continuousCols, "cont")
    assert(contOnly.answers.count() == 5)
    assert(contOnly.truth.count() == 2)
  }
}
