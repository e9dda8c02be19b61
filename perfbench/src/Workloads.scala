package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._
import scala.util.Random

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.chain.{BlockGenerator, ChainParams, ChainSpec}
import repro.core.{Anomaly, FixedWindows, Metrics, Pipeline, SlidingWindows, Tables}
import repro.util.Render

/** The series one query builds: a fixed calendar granularity, or sliding
  * windows of `n` blocks advanced by `m`.
  */
sealed trait Mode { def label: String }
final case class Fixed(g: FixedWindows.Granularity) extends Mode { def label = "fixed" }
final case class Sliding(n: Long, m: Long) extends Mode { def label = "sliding" }

/** A named benchmark workload. `query` runs query `i` of the workload's
  * seeded schedule and returns a check to run after the timed loop: it
  * yields the mismatches between the outputs and the driver-side reference.
  */
trait Workload {
  def name: String
  /** Queries whose per-layer numbers a traced run reports; the timed loop
    * always completes at least this many.
    */
  def probe: Int
  /** Queries an untraced timed loop always completes, however short the
    * run; a traced loop completes `probe`.
    */
  def minQueries: Int = probe
  /** Upper bound on queries per run (the report workload runs once). */
  def maxQueries: Int = Int.MaxValue
  /** Queries per timed repetition; storage is restored after each one. */
  def repetition: Int = 1
  /** Generates and caches the resident attributions. */
  def setup(spark: SparkSession, t: Option[Tracer]): Unit
  /** Warms the JIT, Spark's code cache and a new session for set-up
    * repetition `rep`, untraced, on a small scaled chain; resident data is
    * left alone.
    */
  def warmup(spark: SparkSession, rep: Int): Unit
  def query(spark: SparkSession, i: Int, t: Option[Tracer]): () => Seq[String]
}

object Workload {
  val Z = 2.0
  val SetupQuery = -2
  val WarmupQuery = -1

  def apply(name: String, seed: Long): Workload = name match {
    case "eth-sweep"    => new EthSweep(seed)
    case "btc-seeds"    => new BtcSeeds(seed)
    case "paper-tables" => new PaperTables
    case other          => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** Storage memory plus disk held by cached RDDs, in bytes. */
  def storageBytes(spark: SparkSession): Long =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum

  /** Runs `f` inside span `name` when tracing, plainly otherwise. */
  def span[A](t: Option[Tracer], name: String, q: Int)(f: => A): A = t match {
    case Some(tr) => tr.span(name, q)(f)
    case None     => f
  }

  /** Generates an attribution table and caches it, noting rows and bytes. */
  def resident(spark: SparkSession, spec: ChainSpec, seed: Long, t: Option[Tracer], q: Int): DataFrame =
    span(t, "chain.generate", q) {
      val before = storageBytes(spark)
      val a = BlockGenerator.attributions(spark, spec, seed).cache()
      val rows = a.count()
      t.foreach { tr => tr.note("chain.rows", rows.toDouble); tr.note("chain.cached_bytes", (storageBytes(spark) - before).toDouble) }
      a
    }

  /** Attribution rows the generator must emit: one per normal block plus
    * one per producer of each anomalous block.
    */
  def expectedRows(spec: ChainSpec): Long = {
    val anomalous = spec.anomalies.map(a => spec.blockAtDay(a.day, a.frac)).distinct.size
    spec.blockCount - anomalous + spec.anomalies.map(_.nProducers.toLong).sum
  }

  /** Paper Eq. 5, computed independently of the program. */
  def windows(blocks: Long, n: Long, m: Long): Long = if (blocks < n) 0L else (blocks - n) / m + 1L

  def series(spec: ChainSpec, attrib: DataFrame, mode: Mode): DataFrame = mode match {
    case Fixed(g)      => Pipeline.fixed(attrib, g)
    case Sliding(n, m) => Pipeline.sliding(attrib, spec, n, m)
  }

  def reference(chain: Reference.Chain, mode: Mode): Seq[Reference.Win] = mode match {
    case Fixed(g)      => chain.fixed(g.column)
    case Sliding(n, m) => (0L until windows(chain.blockCount, n, m)).map(chain.sliding(_, n, m))
  }

  /** The layers of one series, called one at a time with each output cached
    * at its boundary, so a span holds only its own layer's work. Returns the
    * (uncached) series and the frames to unpersist.
    */
  def layers(t: Tracer, q: Int, spec: ChainSpec, attrib: DataFrame, attribRows: Long, mode: Mode): (DataFrame, Seq[DataFrame]) = {
    val (counts, cached) = mode match {
      case Fixed(g) =>
        val c = t.span("fixed.counts", q) {
          val c = FixedWindows.counts(attrib, g).cache()
          t.note("fixed.rows_in", attribRows.toDouble)
          t.note("fixed.count_rows", c.count().toDouble)
          c
        }
        (c, Seq(c))
      case Sliding(n, m) =>
        val a = t.span("sliding.assign", q) {
          val a = SlidingWindows.assign(attrib, n, m, spec.blockCount).cache()
          t.note("sliding.rows_in", attribRows.toDouble)
          t.note("sliding.assigned_rows", a.count().toDouble)
          a
        }
        val c = t.span("sliding.counts", q) {
          val c = SlidingWindows.counts(attrib, n, m, spec.blockCount).cache()
          t.note("sliding.count_rows", c.count().toDouble)
          c
        }
        (c, Seq(a, c))
    }
    val countRows = counts.count()
    t.span("metrics.all", q) {
      val mdf = Metrics.all(counts)
      t.note("metrics.rows_in", countRows.toDouble)
      t.note("metrics.windows_out", mdf.collect().length.toDouble)
      t.note("metrics.exchanges", Tracer.exchanges(mdf).toDouble)
    }
    val s = Pipeline.series(counts)
    t.span("pipeline.series", q) {
      s.collect()
      t.note(s"pipeline.series_exchanges.${mode.label}", Tracer.exchanges(s).toDouble)
    }
    (s, cached)
  }

  /** Runs a query: the composite calls inside span `run`, then, when
    * tracing, the layer-by-layer breakdown inside span `layers`.
    */
  def traced(t: Option[Tracer], q: Int)(run: => () => Seq[String])(breakdown: Tracer => Unit): () => Seq[String] =
    t match {
      case None => run
      case Some(tr) =>
        tr.span("query", q) {
          val check = tr.span("run", q)(run)
          tr.span("layers", q)(breakdown(tr))
          check
        }
    }
}

import Workload._

/** Closed loop of sliding-window series over the resident 2019 ETH
  * attributions. N is log-uniform in [1k, 200k] blocks and M = round(N/k)
  * with k in 1..4, drawn by stratified sampling: the log-range is cut into
  * 4 quarters of `Strata` strata each. Each cycle of four queries takes one
  * N from every quarter and pairs the quarters with k by rotation; cycle c
  * uses stratum `order(c)` of each quarter. Every run therefore sees the
  * same mix, and only the point within a narrow stratum (a factor of 1.09
  * in N) depends on the seed.
  */
final class EthSweep(seed: Long) extends Workload {
  val name = "eth-sweep"
  val probe = 2
  // Two whole cycles, so every run's median covers the same mix of
  // quarters and k.
  override val minQueries = 8
  private val spec = ChainParams.eth2019
  private var attrib: DataFrame = _
  private var ref: Reference.Chain = _

  private val schedule: IndexedSeq[(Long, Long)] = {
    val rnd = new Random(seed)
    val (lo, hi) = (math.log(1000.0), math.log(200000.0))
    val seen = scala.collection.mutable.LinkedHashSet.empty[(Long, Long)]
    for (cycle <- 0 until 100; quarter <- 0 until 4) {
      val k = (quarter + cycle) % 4 + 1
      val stratum = quarter * EthSweep.Strata + EthSweep.order(cycle % EthSweep.Strata)
      var nm = (0L, 0L)
      while (nm._1 == 0L || seen(nm)) {
        val u = (stratum + rnd.nextDouble()) / (4 * EthSweep.Strata)
        val n = math.round(math.exp(lo + u * (hi - lo)))
        nm = (n, math.max(1L, math.round(n.toDouble / k)))
      }
      seen += nm
    }
    seen.toIndexedSeq
  }

  def setup(spark: SparkSession, t: Option[Tracer]): Unit = {
    attrib = resident(spark, spec, 2019L, t, SetupQuery)
    ref = null
  }

  /** The first repetition runs `WarmupQueries` series with distinct (N, M),
    * since the planning and code generation that every new series pays
    * take several series to warm; later ones warm the new session with one.
    */
  def warmup(spark: SparkSession, rep: Int): Unit = {
    val small = spec.scaled(0.01)
    val a = BlockGenerator.attributions(spark, small, 7L).cache()
    val n = small.slidingWeek
    for (j <- 0 until (if (rep == 0) EthSweep.WarmupQueries else 1))
      run(spark, small, a, a.count(), Sliding(n + j, (n + j) / (j % 4 + 1)), None, WarmupQuery)
    a.unpersist(true)
  }

  def query(spark: SparkSession, i: Int, t: Option[Tracer]): () => Seq[String] = {
    val (n, m) = schedule(i % schedule.size)
    run(spark, spec, attrib, spec.blockCount, Sliding(n, m), t, i)
  }

  private def run(spark: SparkSession, spec: ChainSpec, attrib: DataFrame, rows: Long, mode: Sliding,
                  t: Option[Tracer], q: Int): () => Seq[String] =
    traced(t, q) {
      val out = series(spec, attrib, mode).collect()
      () => {
        if (q >= 0 && ref == null) ref = Reference.chain(attrib, spec.blockCount)
        if (q < 0) Nil else EthSweep.check(out, ref, mode, new Random(seed * 1000003L + q))
      }
    } { tr =>
      val (_, cached) = layers(tr, q, spec, attrib, rows, mode)
      cached.foreach(_.unpersist(true))
    }
}

object EthSweep {
  /** Strata per quarter of the log-range of N. */
  val Strata = 16
  /** Warm-up series in the first set-up repetition. */
  val WarmupQueries = 4

  /** Stratum of cycle `c` within a quarter: the bit-reversal of `c`, so
    * consecutive cycles spread over the whole quarter.
    */
  def order(c: Int): Int = Integer.reverse(c) >>> (32 - Integer.numberOfTrailingZeros(Strata))

  /** Window count and ids in order, then exact metrics on the first, the
    * last and two seeded windows.
    */
  def check(out: Array[Row], chain: Reference.Chain, mode: Sliding, rnd: Random): Seq[String] = {
    val l = windows(chain.blockCount, mode.n, mode.m)
    val ids = out.map(_.getLong(0)).toSeq
    if (ids != (0L until l)) Seq(s"sliding ${mode.n}/${mode.m}: window ids ${ids.take(3)}… (${ids.size}) vs 0 until $l")
    else {
      val sample = (Seq(0L, l - 1) ++ Seq.fill(2)((rnd.nextDouble() * l).toLong)).distinct
      sample.flatMap(j => Reference.compare(Reference.winOf(out(j.toInt)), chain.sliding(j, mode.n, mode.m)))
    }
  }
}

/** Closed loop over freshly generated BTC chains (new seed each query,
  * uncached): one series from the paper's six BTC (mode, size) pairs, its
  * `Pipeline.summary`, `Anomaly.extremes` for one metric, and the rendered
  * dataset table (T1) of the same chain.
  */
final class BtcSeeds(seed: Long) extends Workload {
  val name = "btc-seeds"
  val probe = 2
  private val spec = ChainParams.btc2019
  private val metricNames = Seq("gini", "entropy", "nakamoto")

  /** (mode, metric, chain seed). Fixed and sliding alternate and the sizes
    * rotate (day, week, month), so every run sees the same mix; the metric
    * and the chain seed are drawn.
    */
  private val schedule: IndexedSeq[(Mode, String, Long)] = {
    val rnd = new Random(seed)
    val fixed = FixedWindows.all.map(Fixed(_))
    val sliding = Seq(spec.slidingDay, spec.slidingWeek, spec.slidingMonth).map(n => Sliding(n, n / 2))
    for (_ <- 0 until 100; size <- 0 until 3; mode <- Seq(fixed(size), sliding(size)))
      yield (mode, metricNames(rnd.nextInt(3)), rnd.nextLong())
  }

  def setup(spark: SparkSession, t: Option[Tracer]): Unit = ()

  /** The whole query path once; later repetitions only warm the new
    * session with one series, because JIT code and Spark's code cache
    * outlive the session.
    */
  def warmup(spark: SparkSession, rep: Int): Unit = {
    val small = spec.scaled(0.1)
    if (rep == 0) run(spark, small, Sliding(small.slidingDay, small.slidingDay / 2), "entropy", 7L, None, WarmupQuery)
    else series(small, BlockGenerator.attributions(spark, small, 7L), Fixed(FixedWindows.Monthly)).collect()
  }

  def query(spark: SparkSession, i: Int, t: Option[Tracer]): () => Seq[String] = {
    val (mode, metric, chainSeed) = schedule(i % schedule.size)
    run(spark, spec, mode, metric, chainSeed, t, i)
  }

  private def run(spark: SparkSession, spec: ChainSpec, mode: Mode, metric: String, chainSeed: Long,
                  t: Option[Tracer], q: Int): () => Seq[String] =
    traced(t, q) {
      val attrib = BlockGenerator.attributions(spark, spec, chainSeed)
      val s = series(spec, attrib, mode)
      val summary = Pipeline.summary(s).collect().toSeq
      val extremes = Anomaly.extremes(s, metric, Z).collect().toSeq
      val t1 = Render.table(Tables.t1Dataset(Seq(spec -> attrib)))
      () => if (q < 0) Nil else BtcSeeds.check(spark, spec, chainSeed, mode, metric, summary, extremes, t1)
    } { tr =>
      val a = resident(spark, spec, chainSeed, t, q)
      val (s, cached) = layers(tr, q, spec, a, a.count(), mode)
      tr.span("pipeline.summary", q)(Pipeline.summary(s).collect())
      tr.span("anomaly.extremes", q)(Anomaly.extremes(s, metric, Z).collect())
      val (rows, schema) = tr.span("tables.T1_dataset", q) {
        val before = storageBytes(spark)
        val df = Tables.t1Dataset(Seq(spec -> a))
        val rows = df.collect()
        tr.note("tables.T1_dataset.leaked_bytes", (storageBytes(spark) - before).toDouble)
        (rows, df.schema)
      }
      tr.span("render", q)(Render.table(spark.createDataFrame(rows.toSeq.asJava, schema)))
      (cached :+ a).foreach(_.unpersist(true))
    }
}

object BtcSeeds {
  def check(spark: SparkSession, spec: ChainSpec, chainSeed: Long, mode: Mode, metric: String,
            summary: Seq[Row], extremes: Seq[Row], t1: String): Seq[String] = {
    val chain = Reference.chain(BlockGenerator.attributions(spark, spec, chainSeed), spec.blockCount)
    val want = expectedRows(spec)
    val rows = if (chain.rows == want) Nil else Seq(s"chain seed $chainSeed: ${chain.rows} attributions, want $want")
    val s = reference(chain, mode)
    rows ++ Reference.checkSummary(summary, s) ++ Reference.checkExtremes(extremes, s, metric, Z) ++
      Reference.checkDataset(t1, chain, spec.name, spec.firstBlock)
  }
}

/** The full T1–T7 report on the resident 2019 BTC and ETH attributions, as
  * the bench suites build it; each rendered table must equal the committed
  * `bench/results/<name>.txt` byte for byte.
  */
final class PaperTables extends Workload {
  val name = "paper-tables"
  val probe = 9
  override val maxQueries = 9
  // The bench suites run T1–T7 in one JVM, so a table sees what earlier
  // tables left cached (T6 reads the daily series T5 caches, which fixes its
  // row order); the report is one repetition.
  override val repetition = 9
  private val (btcSpec, ethSpec) = (ChainParams.btc2019, ChainParams.eth2019)
  private var btc: DataFrame = _
  private var eth: DataFrame = _

  val tables: IndexedSeq[(String, () => DataFrame)] = IndexedSeq(
    "T1_dataset"          -> (() => Tables.t1Dataset(Seq(btcSpec -> btc, ethSpec -> eth))),
    "T2_fixed_bitcoin"    -> (() => Tables.fixedSummary("bitcoin", btc)),
    "T3_fixed_ethereum"   -> (() => Tables.fixedSummary("ethereum", eth)),
    "T4_sliding_bitcoin"  -> (() => Tables.slidingSummary(btcSpec, btc)),
    "T4_sliding_ethereum" -> (() => Tables.slidingSummary(ethSpec, eth)),
    "T5_reveal_bitcoin"   -> (() => Tables.revealSummary(btcSpec, btc)),
    "T5_reveal_ethereum"  -> (() => Tables.revealSummary(ethSpec, eth)),
    "T6_day14_case"       -> (() => Tables.day14Case(btc)),
    "T7_comparison"       -> (() => Tables.comparison(btc, eth)),
  )

  def setup(spark: SparkSession, t: Option[Tracer]): Unit = {
    btc = resident(spark, btcSpec, 2019L, t, SetupQuery)
    eth = resident(spark, ethSpec, 2019L, t, SetupQuery)
  }

  def warmup(spark: SparkSession, rep: Int): Unit = {
    val small = btcSpec.scaled(0.1)
    val a = BlockGenerator.attributions(spark, small, 7L)
    Render.table(Pipeline.summary(Pipeline.fixed(a, FixedWindows.Weekly)))
    Render.table(Tables.slidingSummary(small, a))
    Render.table(Tables.day14Case(a))
  }

  def query(spark: SparkSession, i: Int, t: Option[Tracer]): () => Seq[String] = {
    val (table, build) = tables(i)
    val text = t match {
      case None => Render.table(build())
      case Some(tr) =>
        tr.span("query", i)(tr.span("run", i) {
          val (rows, schema) = tr.span(s"tables.$table", i) {
            val before = storageBytes(spark)
            val df = build()
            val rows = df.collect()
            tr.note(s"tables.$table.leaked_bytes", (storageBytes(spark) - before).toDouble)
            (rows, df.schema)
          }
          tr.span("render", i)(Render.table(spark.createDataFrame(rows.toSeq.asJava, schema)))
        })
    }
    () => PaperTables.check(table, text)
  }
}

object PaperTables {
  /** The bench suites write `Render.table(...)` plus a newline. */
  def check(table: String, text: String): Seq[String] = {
    val path = Paths.get("bench", "results", s"$table.txt")
    if (!Files.exists(path)) Seq(s"$table: missing $path")
    else {
      val want = new String(Files.readAllBytes(path), StandardCharsets.UTF_8)
      if (want == text + "\n") Nil
      else {
        val got = Paths.get(sys.props.getOrElse("perfbench.state", "perfbench-state"), s"$table.txt")
        Json.write(got.toString, text + "\n")
        val reordered = if (want.split("\n").sorted.sameElements((text + "\n").split("\n").sorted)) "; same rows in another order" else ""
        Seq(s"$table: rendered table differs from $path (written to $got$reordered)")
      }
    }
  }
}
