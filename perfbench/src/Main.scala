package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

/** Benchmark entry point: `--workload <name> --seed <n> --seconds <s>
  * --trace <0|1>`, plus `--workload selftest`.
  *
  * One client thread drives the program in a closed loop: query i+1 is sent
  * when query i has returned. Outputs are checked after the timed loop.
  * Human-readable lines go to stdout first; the last line is one JSON object
  * `{correct, attempted, failed, metrics}` holding the end-to-end metrics
  * (untraced) or the per-layer metrics (traced).
  */
object Main {
  /** Untraced set-up is repeated this many times per run and its median
    * reported; a traced run reports no set-up time and sets up once.
    */
  val SetupReps = 3
  /** The bench suites' session settings (`SparkSpec`): broadcast joins off. */
  val ShufflePartitions = 64

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    require(args.length % 2 == 0 && kv.size * 2 == args.length, s"bad arguments: ${args.mkString(" ")}")
    val a = Args(kv("workload"), kv.getOrElse("seed", "1").toLong, kv.getOrElse("seconds", "10").toInt,
                 kv.getOrElse("trace", "0") == "1")
    require(a.seconds >= 1, s"bad --seconds ${a.seconds}")
    a
  }

  def now: Long = System.nanoTime()
  private val started = System.nanoTime()
  def log(msg: String): Unit = Console.err.println(f"perfbench ${(now - started) / 1e9}%7.1f s: $msg")
  def secs(ns: Long): Double = ns / 1e9

  def session(): SparkSession = {
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
    val s = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", sys.props.getOrElse("perfbench.localDir", "spark-local"))
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def main(argv: Array[String]): Unit = {
    val t0 = now
    val args = parse(argv)
    val code =
      if (args.workload == "selftest") SelfTest.run()
      else run(args, t0)
    sys.exit(code)
  }

  def run(args: Args, t0: Long): Int = {
    val wl = Workload(args.workload, args.seed)

    // Set-up: session, resident attributions and a warm-up on a small chain,
    // repeated so its median is steady; the last one's session and data serve
    // the timed loop. The first repetition is timed from JVM main.
    var spark: SparkSession = null
    var tracer: Option[Tracer] = None
    val setups = ArrayBuffer.empty[Double]
    for (r <- 0 until (if (args.trace) 1 else SetupReps)) {
      val start = if (r == 0) t0 else now
      if (spark != null) { spark.catalog.clearCache(); spark.stop() }
      spark = session()
      tracer = if (args.trace) Some(new Tracer(spark.sparkContext)) else None
      wl.setup(spark, tracer)
      wl.warmup(spark, r)
      setups += secs(now - start)
      log(f"set-up ${r + 1} took ${setups.last}%.1f s")
    }
    val baseline = Workload.storageBytes(spark)

    // Timed closed loop.
    val latencies = ArrayBuffer.empty[Double]
    val checks = ArrayBuffer.empty[(Int, () => Seq[String])]
    val errors = ArrayBuffer.empty[String]
    val failed = scala.collection.mutable.SortedSet.empty[Int]
    val leaks = ArrayBuffer.empty[(Int, Long)]
    var held = 0L
    var excluded = 0L
    val loopStart = now
    var i = 0
    val minQueries = if (args.trace) wl.probe else wl.minQueries
    while (i < wl.maxQueries && (i < minQueries || now - loopStart - excluded < args.seconds * 1000000000L)) {
      val before = Workload.storageBytes(spark)
      val q0 = now
      try checks += i -> wl.query(spark, i, tracer)
      catch { case NonFatal(e) => failed += i; errors += s"query $i threw $e" }
      latencies += (now - q0) / 1e6
      // Cache hygiene: report what the query left cached and, at the end of a
      // repetition, restore storage to its post-setup state, off the clock.
      val h0 = now
      held = Workload.storageBytes(spark)
      if (held != before) leaks += i -> (held - before)
      if ((i + 1) % wl.repetition == 0 && held != baseline) {
        spark.catalog.clearCache()
        wl.setup(spark, None)
      }
      excluded += now - h0
      i += 1
    }
    val loopWall = secs(now - loopStart - excluded)
    log(s"timed loop ran $i queries")
    // Storage held after the last query, before any restore.
    val cachedMb = held / 1e6

    // Correctness, off the timed path.
    for ((q, check) <- checks) {
      val bad = try check() catch { case NonFatal(e) => Seq(s"check threw $e") }
      if (bad.nonEmpty) failed += q
      bad.take(5).foreach(b => errors += s"query $q: $b")
    }
    val failedQueries = failed.size
    errors.foreach(e => println(s"ERROR $e"))

    val record = RunRecord(spark, args, setups.size)
    println(s"run_record ${Json(record)}")
    leaks.foreach { case (q, b) => println(s"leak: query $q left $b bytes cached") }

    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) endToEnd(setups.toSeq, latencies.toSeq, loopWall, failedQueries, i, cachedMb, wl)
      else {
        log("checked outputs")
        tracer.get.drain()
        log("listener drained")
        val layer = Layers.report(tracer.get, wl)
        val drift = Layers.determinism(tracer.get, wl, args)
        drift.foreach(d => println(s"ERROR $d"))
        if (drift.nonEmpty) errors += "structural counters differ from an earlier run"
        layer
      }
    metrics.foreach { case (k, v, u) => println(f"metric $k%-42s $v%.6f $u") }
    Layers.writeSpans(tracer, args)

    val correct = errors.isEmpty
    val out = Json(Map(
      "correct" -> correct,
      "attempted" -> i,
      "failed" -> math.max(failedQueries, if (correct) 0 else 1),
      "metrics" -> metrics.map { case (k, v, u) => k -> Map("value" -> v, "unit" -> u) }.toMap,
    ))
    spark.stop()
    println(out)
    if (correct) 0 else 1
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Highest percentile with at least ten samples beyond it, as (pct, value). */
  def tail(xs: Seq[Double]): Option[(Double, Double)] = {
    val s = xs.sorted
    val k = s.size - 11 // index with ten samples above it
    if (k < 0) None else Some((100.0 * (k + 1) / s.size, s(k)))
  }

  def endToEnd(setups: Seq[Double], lat: Seq[Double], wall: Double, failed: Int, attempted: Int,
               cachedMb: Double, wl: Workload): Seq[(String, Double, String)] = {
    println(f"setup repetitions: ${setups.map(s => f"$s%.3f").mkString(", ")} s (first is from JVM main)")
    println(f"queries: $attempted in $wall%.3f s; latencies ms: ${lat.map(l => f"$l%.1f").mkString(", ")}")
    tail(lat) match {
      case Some((p, v)) => println(f"query_tail_ms = $v%.3f ms at p$p%.1f over ${lat.size} samples")
      case None         => println(s"query_tail_ms = n/a: ${lat.size} samples leave no percentile with ten beyond it")
    }
    println(f"error_rate = ${failed.toDouble / attempted}%.6f ratio ($failed of $attempted)")
    println(f"cached_mb = $cachedMb%.6f MB")
    Seq(
      ("setup_s", median(setups), "s"),
      ("query_p50_ms", median(lat), "ms"),
      ("queries_per_s", attempted / wall, "1/s"),
    ) ++ (if (wl.isInstanceOf[PaperTables]) Seq(("report_s", lat.sum / 1000.0, "s")) else Nil)
  }
}

/** Versions and settings that decide whether two results are comparable. */
object RunRecord {
  def apply(spark: SparkSession, args: Main.Args, setupReps: Int): Map[String, Any] = {
    val conf = spark.conf
    Map(
      "git_revision" -> sys.props.getOrElse("perfbench.git", "unknown"),
      "git_dirty" -> sys.props.getOrElse("perfbench.dirty", "unknown"),
      "spark" -> spark.version,
      "scala" -> scala.util.Properties.versionNumberString,
      "java" -> System.getProperty("java.version"),
      "master" -> spark.sparkContext.master,
      "task_threads" -> spark.sparkContext.defaultParallelism,
      "spark.sql.shuffle.partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.autoBroadcastJoinThreshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "spark.sql.adaptive.enabled" -> conf.get("spark.sql.adaptive.enabled"),
      "session_config" -> "bench suites' SparkSpec (broadcast joins off); jobs/Jobs.session leaves broadcast on",
      "driver_heap_max_bytes" -> Runtime.getRuntime.maxMemory,
      "driver_heap_flag" -> sys.props.getOrElse("perfbench.heap", "unknown"),
      "driver_jvm_flags" -> sys.props.getOrElse("perfbench.jvm", "unknown"),
      "workload" -> args.workload,
      "seed" -> args.seed,
      "run_seconds" -> args.seconds,
      "trace" -> args.trace,
      "setup_repetitions" -> setupReps,
    )
  }
}

/** Minimal JSON writer for maps, sequences, strings, numbers and booleans. */
object Json {
  def apply(v: Any): String = v match {
    case null                => "null"
    case s: String           => quote(s)
    case b: Boolean          => b.toString
    case d: Double           => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Number           => n.toString
    case m: Map[_, _]        => m.toSeq.sortBy(_._1.toString).map { case (k, x) => s"${quote(k.toString)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]     => xs.map(apply).mkString("[", ", ", "]")
    case other               => quote(other.toString)
  }

  private def quote(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")

  def write(path: String, content: String): Unit = {
    val p = Paths.get(path)
    Option(p.getParent).foreach(Files.createDirectories(_))
    Files.write(p, content.getBytes(StandardCharsets.UTF_8))
  }
}
