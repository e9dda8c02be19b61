package repro.perfbench

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row}
import repro.core.LocalMetrics

/** Driver-side reference for checking the program's outputs. Per-window
  * counts are taken from the attribution rows on the driver and fed to
  * [[LocalMetrics]]; Gini and Nakamoto must match exactly, entropy within
  * [[Reference.EntropyTol]].
  */
object Reference {
  val EntropyTol = 1e-6
  /** Relative tolerance for means and standard deviations, which Spark sums
    * in a different order than the driver.
    */
  val MomentTol = 1e-9

  final case class Win(id: Long, producers: Long, attributions: Long, gini: Double, entropy: Double, nakamoto: Int) {
    def metric(name: String): Double = name match {
      case "gini"     => gini
      case "entropy"  => entropy
      case "nakamoto" => nakamoto.toDouble
    }
  }

  def window(id: Long, counts: Seq[Long]): Win =
    Win(id, counts.size.toLong, counts.sum, LocalMetrics.gini(counts), LocalMetrics.entropy(counts), LocalMetrics.nakamoto(counts))

  def winOf(r: Row): Win =
    Win(r.getLong(0), r.getLong(1), r.getLong(2), r.getDouble(3), r.getDouble(4), r.getInt(5))

  /** Attribution rows of one chain on the driver, sorted by block index:
    * rows `offsets(i) until offsets(i + 1)` belong to block index `i`.
    */
  final class Chain(val blockCount: Long, offsets: Array[Int], miner: Array[Int], val day: Array[Int],
                    val week: Array[Int], val month: Array[Int], val miners: Int) {
    def rows: Int = miner.length

    private def counts(rowRange: Iterator[Int]): Seq[Long] = {
      val c = new Array[Long](miners)
      rowRange.foreach(r => c(miner(r)) += 1)
      c.iterator.filter(_ > 0).toSeq
    }

    /** Sliding window `j` of size `n`, step `m`: block indices `[j·m, j·m + n)`. */
    def sliding(j: Long, n: Long, m: Long): Win = {
      val lo = offsets((j * m).toInt)
      val hi = offsets(math.min(j * m + n, blockCount).toInt)
      window(j, counts(Iterator.range(lo, hi)))
    }

    /** Every fixed window of a calendar column (`day`, `week` or `month`). */
    def fixed(column: String): Seq[Win] = {
      val key = column match { case "day" => day; case "week" => week; case "month" => month }
      key.indices.groupBy(key(_)).toSeq.sortBy(_._1).map { case (w, rs) => window(w.toLong, counts(rs.iterator)) }
    }

    /** Distinct blocks per day. */
    def blocksPerDay: Map[Int, Long] = {
      val out = mutable.Map.empty[Int, Long].withDefaultValue(0L)
      for (i <- 0 until blockCount.toInt if offsets(i + 1) > offsets(i)) out(day(offsets(i))) += 1
      out.toMap
    }
  }

  /** Collects `(idx, day, week, month, miner)` of an attribution table. */
  def chain(attrib: DataFrame, blockCount: Long): Chain = {
    val ids = mutable.HashMap.empty[String, Int]
    val raw = mutable.ArrayBuilder.make[Long]
    for (r <- attrib.select("idx", "day", "week", "month", "miner").collect()) {
      val m = ids.getOrElseUpdate(r.getString(4), ids.size)
      // Pack (idx, row payload) so one primitive sort orders rows by block.
      raw += r.getLong(0)
      raw += (r.getInt(1).toLong << 40) | (r.getInt(2).toLong << 32) | (r.getInt(3).toLong << 24) | m.toLong
    }
    val flat = raw.result()
    val n = flat.length / 2
    // Counting sort by block index.
    val offsets = new Array[Int](blockCount.toInt + 1)
    for (i <- 0 until n) offsets(flat(2 * i).toInt + 1) += 1
    for (i <- 1 to blockCount.toInt) offsets(i) += offsets(i - 1)
    val next = offsets.clone()
    val order = new Array[Int](n)
    for (i <- 0 until n) { val b = flat(2 * i).toInt; order(next(b)) = i; next(b) += 1 }
    def field(shift: Int, bits: Int): Array[Int] = order.map(i => ((flat(2 * i + 1) >>> shift) & ((1L << bits) - 1)).toInt)
    new Chain(blockCount, offsets, field(0, 24), field(40, 16), field(32, 8), field(24, 8), ids.size)
  }

  private def close(a: Double, b: Double, tol: Double): Boolean = math.abs(a - b) <= tol

  /** Mismatches between a returned window and its reference. */
  def compare(got: Win, ref: Win): Seq[String] = {
    val bad = Seq(
      (got.id != ref.id)                           -> "window_id",
      (got.producers != ref.producers)             -> "producers",
      (got.attributions != ref.attributions)       -> "attributions",
      (got.gini != ref.gini)                       -> "gini",
      !close(got.entropy, ref.entropy, EntropyTol) -> "entropy",
      (got.nakamoto != ref.nakamoto)               -> "nakamoto",
    ).collect { case (true, what) => what }
    if (bad.isEmpty) Nil else Seq(s"window ${ref.id}: ${bad.mkString(",")} differ (got $got, want $ref)")
  }

  /** Tolerance for a statistic of `metric`: exact metrics get a relative
    * summation-order tolerance, entropy its absolute one on top.
    */
  def tol(metric: String, ref: Double): Double =
    MomentTol * math.max(1.0, math.abs(ref)) + (if (metric == "entropy") EntropyTol else 0.0)

  final case class Summary(mean: Double, stddev: Double, min: Double, max: Double, windows: Long)

  def summary(series: Seq[Win], metric: String): Summary = {
    val xs = series.map(_.metric(metric))
    val n = xs.size
    val mean = xs.sum / n
    val sd = if (n > 1) math.sqrt(xs.map(x => (x - mean) * (x - mean)).sum / (n - 1)) else Double.NaN
    Summary(mean, sd, xs.min, xs.max, n.toLong)
  }

  /** Checks `Pipeline.summary` rows `(metric, mean, stddev, min, max, windows)`. */
  def checkSummary(rows: Seq[Row], series: Seq[Win]): Seq[String] = {
    val got = rows.map(r => r.getString(0) -> r).toMap
    Seq("gini", "entropy", "nakamoto").flatMap { metric =>
      val want = summary(series, metric)
      got.get(metric) match {
        case None => Seq(s"summary: no row for $metric")
        case Some(r) =>
          val t = tol(metric, want.mean)
          val bad = Seq(
            !close(r.getDouble(1), want.mean, t)                               -> "mean",
            !(close(r.getDouble(2), want.stddev, tol(metric, want.stddev)) ||
              (r.isNullAt(2) || r.getDouble(2).isNaN) && want.stddev.isNaN)    -> "stddev",
            !close(r.getDouble(3), want.min, tol(metric, want.min))            -> "min",
            !close(r.getDouble(4), want.max, tol(metric, want.max))            -> "max",
            (r.getLong(5) != want.windows)                                     -> "windows",
          ).collect { case (true, what) => what }
          if (bad.isEmpty) Nil else Seq(s"summary $metric: ${bad.mkString(",")} differ (got $r, want $want)")
      }
    }
  }

  /** Checks `Anomaly.extremes` rows `(window_id, value, zscore)`. A window
    * within the metric's tolerance of the threshold may fall either way.
    */
  def checkExtremes(rows: Seq[Row], series: Seq[Win], metric: String, z: Double): Seq[String] = {
    val s = summary(series, metric)
    val t = tol(metric, s.mean)
    val byId = series.map(w => w.id -> w.metric(metric)).toMap
    val dev = (id: Long) => math.abs(byId(id) - s.mean) - z * s.stddev
    val want = series.map(_.id).filter(id => s.stddev > 0 && dev(id) > 0).toSet
    val got = rows.map(_.getLong(0))
    val order = if (got == got.sorted) Nil else Seq("extremes: not ordered by window_id")
    val missing = (want -- got).filter(id => dev(id) > t)
    val extra = got.filterNot(want).filter(id => !byId.contains(id) || dev(id) < -t)
    val values = rows.filter(r => byId.contains(r.getLong(0))).flatMap { r =>
      val id = r.getLong(0)
      val zs = (byId(id) - s.mean) / s.stddev
      if (close(r.getDouble(1), byId(id), tol(metric, byId(id))) && close(r.getDouble(2), zs, 1e-6 * math.max(1.0, math.abs(zs)) + t / s.stddev)) Nil
      else Seq(s"extremes: window $id value/zscore (${r.getDouble(1)}, ${r.getDouble(2)}) vs (${byId(id)}, $zs)")
    }
    order ++ values ++
      (if (missing.nonEmpty) Seq(s"extremes $metric: missing windows ${missing.toSeq.sorted.mkString(",")}") else Nil) ++
      (if (extra.nonEmpty) Seq(s"extremes $metric: unexpected windows ${extra.mkString(",")}") else Nil)
  }

  /** Parses a `Render.table` text into header and rows of cells. */
  def parseRendered(text: String): (Seq[String], Seq[Seq[String]]) = {
    val lines = text.split("\n").toSeq
    def cells(l: String): Seq[String] = l.stripPrefix("| ").stripSuffix(" |").split(" \\| ", -1).toSeq.map(_.trim)
    (cells(lines.head), lines.drop(2).map(cells))
  }

  /** Checks a rendered T1 (`Tables.t1Dataset`) of one chain against the
    * driver-side rows.
    */
  def checkDataset(text: String, chain: Chain, name: String, firstBlock: Long): Seq[String] = {
    val (header, rows) = parseRendered(text)
    val blocks = chain.blocksPerDay
    val want = Seq(name, blocks.values.sum, chain.rows, chain.miners, firstBlock,
                   firstBlock + chain.blockCount - 1, blocks.size).map(_.toString)
    val expectHeader = Seq("chain", "blocks", "attributions", "producers", "first_block", "last_block", "days")
    if (header == expectHeader && rows == Seq(want)) Nil else Seq(s"T1: rendered $header $rows, want $want")
  }
}
