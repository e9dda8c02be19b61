package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.scalacheck.{Gen, Prop}
import repro.{PropertyCheck, SparkSpec}

/** Properties of the one-pass metrics kernel over random multisets of
  * counts: the Spark plan agrees with [[LocalMetrics]], every metric stays
  * within its bounds, and the series does not depend on the number of
  * shuffle partitions.
  */
class MetricsKernelSpec extends SparkSpec with PropertyCheck {

  /** One window's counts: random, all tied, a single producer, or huge. */
  private val window: Gen[Seq[Long]] = Gen.oneOf(
    Gen.nonEmptyListOf(Gen.chooseNum(1L, 200L)).map(_.take(40)),
    for (n <- Gen.chooseNum(1, 60); x <- Gen.chooseNum(1L, 1000L)) yield Seq.fill(n)(x),
    Gen.chooseNum(1L, 1000000L).map(Seq(_)),
    Gen.nonEmptyListOf(Gen.chooseNum(1L, 1000000L)).map(_.take(40)),
  )

  private val windows: Gen[Map[Long, Seq[Long]]] =
    Gen.chooseNum(1, 12).flatMap(k => Gen.listOfN(k, window)).map(ws => ws.indices.map(_.toLong).zip(ws).toMap)

  private val threshold: Gen[Int] = Gen.oneOf(1, 51, 100)

  private def countsDf(ws: Map[Long, Seq[Long]]): DataFrame = {
    import spark.implicits._
    ws.toSeq
      .flatMap { case (w, xs) => xs.zipWithIndex.map { case (x, i) => (w, f"m$i%03d", x) } }
      .toDF("window_id", "miner", "cnt")
      .repartition(3)
  }

  private def byWindow(df: DataFrame): Map[Long, Row] =
    df.collect().map(r => r.getLong(0) -> r).toMap

  test("property: Spark Metrics.all equals LocalMetrics.window, window by window") {
    checkProp(Prop.forAll(windows, threshold) { (ws, pct) =>
      val got = byWindow(Metrics.all(countsDf(ws), pct))
      got.keySet == ws.keySet && ws.forall { case (w, xs) =>
        val r = got(w)
        val l = LocalMetrics.window(xs, pct)
        r.getLong(1) == l.producers && r.getLong(2) == l.attributions &&
          r.getDouble(3) == l.gini && math.abs(r.getDouble(4) - l.entropy) < 1e-9 &&
          r.getInt(5) == l.nakamoto
      }
    }, minSuccessful = 25)
  }

  test("property: metrics stay within their bounds") {
    checkProp(Prop.forAll(windows, threshold) { (ws, pct) =>
      val got = byWindow(Metrics.all(countsDf(ws), pct))
      ws.forall { case (w, xs) =>
        val r = got(w)
        val n = xs.size
        val (g, e, k) = (r.getDouble(3), r.getDouble(4), r.getInt(5))
        g >= 0.0 && g <= 1.0 - 1.0 / n + 1e-12 &&
          e >= 0.0 && e <= math.log(n) / math.log(2) + 1e-9 &&
          k >= 1 && k <= n
      }
    }, minSuccessful = 25)
  }

  test("property: the series at 1 shuffle partition equals the series at 64") {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    try checkProp(Prop.forAll(windows) { ws =>
      val counts = countsDf(ws)
      def at(p: Int): Seq[Row] = { spark.conf.set(key, p.toLong); Pipeline.series(counts).collect().toSeq }
      at(1) == at(64)
    }, minSuccessful = 15)
    finally spark.conf.set(key, saved)
  }
}
