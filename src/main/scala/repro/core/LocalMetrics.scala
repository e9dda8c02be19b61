package repro.core

/** The metrics kernel: the paper's three decentralization metrics over one
  * window's per-producer block counts, in pure Scala. [[Metrics.all]] runs
  * [[window]] on every window of a Spark counts frame, so the Spark path and
  * the Scala reference share this one implementation; DuckDB
  * (`repro.Oracle`) stays the independent oracle.
  */
object LocalMetrics {

  /** One window's population stats and metrics. */
  final case class WindowMetrics(producers: Long, attributions: Long, gini: Double, entropy: Double, nakamoto: Int)

  private def log2(x: Double): Double = math.log(x) / math.log(2.0)

  /** All three metrics from one ascending sort and one descending pass:
    *   - Gini (paper Eq. 1): `G = Σᵢⱼ |xᵢ − xⱼ| / (2·n·Σx)`, via the rank
    *     formula `G = (2·Σᵢ i·x₍ᵢ₎ − (n+1)·Σx) / (n·Σx)` with x ascending.
    *     The numerator stays integer until one final double division. Tied
    *     producers share a count, so their order cannot change `Σ i·x₍ᵢ₎`.
    *   - Entropy in bits (paper Eq. 2–3): `E = Σ pᵢ·log₂(1/pᵢ)`, which is
    *     +0.0 (not −0.0) for a single producer.
    *   - Nakamoto (paper Eq. 4): the fewest producers, largest first, whose
    *     combined count reaches `thresholdPct`% of the window, tested in
    *     integers as `cum·100 ≥ tot·pct`.
    */
  def window(counts: Seq[Long], thresholdPct: Int = 51): WindowMetrics = {
    require(counts.nonEmpty, "metrics of an empty window")
    require(thresholdPct >= 1 && thresholdPct <= 100, s"bad threshold $thresholdPct")
    val xs = counts.toArray
    java.util.Arrays.sort(xs)
    require(xs(0) > 0, "block counts must be positive")
    val n   = xs.length
    val tot = xs.sum
    var s1  = 0L
    var ent = 0.0
    var cum = 0L
    var nak = 0
    var i   = n - 1
    while (i >= 0) {
      val x = xs(i)
      s1 += (i + 1L) * x
      val p = x / tot.toDouble
      ent += p * log2(1.0 / p)
      cum += x
      if (nak == 0 && cum * 100L >= tot * thresholdPct) nak = n - i
      i -= 1
    }
    val gini = (2L * s1 - (n + 1L) * tot).toDouble / (n * tot).toDouble
    WindowMetrics(n.toLong, tot, gini, ent, nak)
  }

  /** Gini coefficient: 0 for an even distribution, → 1 as one producer dominates. */
  def gini(counts: Seq[Long]): Double = window(counts).gini

  /** Shannon entropy in bits: 0 for one producer, log₂(n) for an even split. */
  def entropy(counts: Seq[Long]): Double = window(counts).entropy

  /** Nakamoto coefficient at `thresholdPct`% (the paper's 51% by default). */
  def nakamoto(counts: Seq[Long], thresholdPct: Int = 51): Int = window(counts, thresholdPct).nakamoto
}
