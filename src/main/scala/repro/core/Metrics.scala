package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The paper's three decentralization metrics over Spark.
  *
  * All functions consume a *window counts* frame with columns
  * `(window_id: Long, miner: String, cnt: Long)` — one row per producer per
  * window — and return one row per `window_id`.
  *
  * One kernel computes everything: a single `groupBy(window_id)` collects
  * each window's counts and [[LocalMetrics.window]] sorts them once and
  * returns producers, attributions, Gini, entropy and Nakamoto together, so
  * a metrics plan has one shuffle exchange. Gini stays integer-exact until
  * one final division, and the Nakamoto threshold test is integer-exact, so
  * both are bit-identical to the DuckDB oracle's rank-formula SQL.
  */
object Metrics {

  /** `(window_id, producers, attributions, gini, entropy, nakamoto)`, one row
    * per window; Nakamoto at `thresholdPct`% of the window's attributions.
    */
  def all(counts: DataFrame, thresholdPct: Int = 51): DataFrame = {
    require(thresholdPct >= 1 && thresholdPct <= 100, s"bad threshold $thresholdPct")
    val kernel = udf((xs: Seq[Long]) => LocalMetrics.window(xs, thresholdPct))
    counts
      .groupBy("window_id")
      .agg(kernel(collect_list("cnt")).as("m"))
      .select("window_id", "m.producers", "m.attributions", "m.gini", "m.entropy", "m.nakamoto")
  }

  /** Gini coefficient per window (paper Eq. 1). */
  def gini(counts: DataFrame): DataFrame = all(counts).select("window_id", "gini")

  /** Shannon entropy (bits) per window (paper Eq. 2–3). */
  def entropy(counts: DataFrame): DataFrame = all(counts).select("window_id", "entropy")

  /** Nakamoto coefficient per window (paper Eq. 4). */
  def nakamoto(counts: DataFrame, thresholdPct: Int = 51): DataFrame =
    all(counts, thresholdPct).select("window_id", "nakamoto")
}
