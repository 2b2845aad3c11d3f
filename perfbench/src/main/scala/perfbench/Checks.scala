package perfbench

import java.nio.file.{Files, Paths}
import repro.core.TruthCell
import scala.jdk.CollectionConverters._

/** Output checks. A failed check is returned as a message, never thrown:
  * it counts as a failed operation and the run goes on.
  */
object Checks {

  /** Every answered cell has an estimate, every estimate is finite, and
    * categorical estimates are labels in [0, L).
    */
  def estimates(est: Seq[TruthCell], answered: Set[(Int, Int)],
                labels: Map[Int, Int]): Option[String] = {
    val have = est.iterator.map(t => (t.row, t.col)).toSet
    val missing = answered.count(c => !have.contains(c))
    val nonFinite = est.count(t => t.value.isNaN || t.value.isInfinite)
    val badLabel = est.count { t =>
      val l = labels.getOrElse(t.col, 0)
      l > 0 && !(t.value >= 0 && t.value < l && t.value == math.floor(t.value))
    }
    if (missing + nonFinite + badLabel == 0) None
    else Some(s"$missing answered cells without estimate, $nonFinite non-finite, " +
      s"$badLabel labels out of range")
  }

  /** A score as Table 7 prints it (`Experiments` formats the same way). */
  def printed(x: Double): String = if (x.isNaN) "/" else f"$x%.4f"

  /** Table 7 scores of an archived table: (method, dataset) -> (error rate,
    * MNAD), as printed.
    */
  def table7Reference(path: String): Map[(String, String), (String, String)] = {
    val p = Paths.get(path)
    if (!Files.isRegularFile(p)) return Map.empty
    Files.readAllLines(p).asScala.toSeq
      .map(_.split("\\|", -1).map(_.trim).toSeq)
      .filter(c => c.size == 8 && c(1).nonEmpty && c(1) != "Method" && !c(1).startsWith("-"))
      .flatMap { c =>
        Seq((c(1), "Celebrity") -> (c(2), c(3)), (c(1), "Restaurant") -> (c(4), c(5)),
            (c(1), "Emotion") -> ("/", c(6)))
      }.toMap
  }

  /** A score differs from the archived Table 7 at its printed precision. */
  def table7(ref: Map[(String, String), (String, String)], method: String, dataset: String,
             errorRate: Double, mnad: Double): Option[String] =
    ref.get((method, dataset)) match {
      case None => Some(s"no Table 7 reference for $method on $dataset")
      case Some(expected) =>
        val got = (printed(errorRate), printed(mnad))
        if (got == expected) None
        else Some(s"Table 7 $method/$dataset: got $got, archived $expected")
    }
}
