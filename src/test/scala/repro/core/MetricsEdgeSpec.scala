package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec

/** Edge-case behaviour of the metric aggregations: ties, huge windows,
  * threshold boundaries, many windows at once.
  */
class MetricsEdgeSpec extends SparkSpec {

  private def countsDf(rows: Seq[(Long, String, Long)]): DataFrame = {
    import spark.implicits._
    rows.toDF("window_id", "miner", "cnt")
  }

  test("gini with all-tied counts is exactly 0 regardless of tie order") {
    val df = countsDf((1 to 50).map(i => (0L, s"m$i", 7L)))
    val g  = Metrics.gini(df).first().getDouble(1)
    assert(g === 0.0)
  }

  test("nakamoto tie-break at the threshold row is deterministic") {
    // Two miners with identical counts at the 51% boundary: tied producers
    // share a count, so their order cannot change the result.
    val df = countsDf(Seq((0L, "b", 50L), (0L, "a", 50L)))
    assert(Metrics.nakamoto(df).first().getInt(1) === 2)
    val df2 = countsDf(Seq((0L, "b", 51L), (0L, "a", 49L)))
    assert(Metrics.nakamoto(df2).first().getInt(1) === 1)
  }

  test("nakamoto at threshold 100 needs every producer") {
    val df = countsDf(Seq((0L, "a", 1L), (0L, "b", 1L), (0L, "c", 98L)))
    assert(Metrics.nakamoto(df, 100).first().getInt(1) === 3)
  }

  test("nakamoto at threshold 1 needs exactly the top producer") {
    val df = countsDf(Seq((0L, "a", 1L), (0L, "b", 1L), (0L, "c", 98L)))
    assert(Metrics.nakamoto(df, 1).first().getInt(1) === 1)
  }

  test("a 10,000-producer window computes correct gini and entropy") {
    val xs = (1L to 10000L).map(i => (0L, f"m$i%05d", i))
    val df = countsDf(xs)
    val g  = Metrics.gini(df).first().getDouble(1)
    val e  = Metrics.entropy(df).first().getDouble(1)
    assert(math.abs(g - LocalMetrics.gini(xs.map(_._3))) < 1e-12)
    assert(math.abs(e - LocalMetrics.entropy(xs.map(_._3))) < 1e-9)
    // closed form: Gini of counts 1..n is (n−1)/(3n)
    assert(math.abs(g - (10000.0 - 1) / (3.0 * 10000.0)) < 1e-9)
  }

  test("500 windows in one frame all get independent metrics") {
    val rows = for (w <- 0L until 500L; i <- 0 until 4)
      yield (w, s"m$i", (w % 7) + i + 1L)
    val all = Metrics.all(countsDf(rows)).cache()
    assert(all.count() === 500L)
    // spot-check one window against the local reference
    val w13 = rows.filter(_._1 == 13L).map(_._3)
    val r = all.where(col("window_id") === 13L).first()
    assert(math.abs(r.getDouble(r.fieldIndex("gini")) - LocalMetrics.gini(w13)) < 1e-12)
    assert(r.getInt(r.fieldIndex("nakamoto")) === LocalMetrics.nakamoto(w13))
  }

  test("counts of 1 for every producer: gini 0, entropy log2 n, nakamoto 51% of n") {
    val df = countsDf((1 to 200).map(i => (0L, f"m$i%03d", 1L)))
    val r = Metrics.all(df).first()
    assert(r.getDouble(r.fieldIndex("gini")) === 0.0)
    assert(math.abs(r.getDouble(r.fieldIndex("entropy")) - math.log(200) / math.log(2)) < 1e-9)
    assert(r.getInt(r.fieldIndex("nakamoto")) === 102) // ceil(200*0.51)
  }

  test("extremely skewed window: gini near 1, entropy near 0, nakamoto 1") {
    val df = countsDf(Seq((0L, "whale", 1000000L)) ++ (1 to 9).map(i => (0L, s"m$i", 1L)))
    val r = Metrics.all(df).first()
    assert(r.getDouble(r.fieldIndex("gini")) > 0.85)
    assert(r.getDouble(r.fieldIndex("entropy")) < 0.01)
    assert(r.getInt(r.fieldIndex("nakamoto")) === 1)
  }

  test("gini denominator never overflows at ETH monthly scale") {
    // 180,000 blocks over 400 producers — counts in the hundreds of thousands
    val xs = (1 to 400).map(i => (0L, f"m$i%03d", 450L * i))
    val g  = Metrics.gini(countsDf(xs)).first().getDouble(1)
    assert(math.abs(g - LocalMetrics.gini(xs.map(_._3))) < 1e-12)
  }
}
