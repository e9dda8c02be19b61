package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

/** Turns a traced run's spans, counters and notes into per-layer metrics.
  *
  * Every value covers the workload's probe queries (the first
  * `Workload.probe` of the schedule, which every run completes) plus the
  * final set-up. Times are span self times from the layer-by-layer
  * breakdown; `spark.*` are engine counters of the probe queries' composite
  * calls (span `run`); exchanges are per series (the largest seen).
  */
object Layers {
  val Driver: Seq[String] = Seq(
    "chain.generate_s", "chain.rows", "chain.cached_bytes",
    "fixed.counts_s", "fixed.rows_in", "fixed.count_rows",
    "sliding.assign_s", "sliding.assigned_rows", "sliding.expand_ratio", "sliding.counts_s", "sliding.count_rows",
    "metrics.all_s", "metrics.rows_in", "metrics.windows_out", "metrics.exchanges", "metrics.jobs",
    "pipeline.series_s", "pipeline.series_exchanges.fixed", "pipeline.series_exchanges.sliding",
    "pipeline.series_jobs", "pipeline.summary_s", "pipeline.summary_jobs",
    "anomaly.extremes_s", "anomaly.jobs",
    "tables.T1_dataset_s", "tables.T1_dataset.jobs", "tables.T1_dataset.leaked_bytes",
    "render.s",
  )

  val Engine: Seq[String] = Seq(
    "spark.jobs", "spark.stages", "spark.tasks", "spark.failed_tasks", "spark.executor_run_s",
    "spark.task_wait_s", "spark.gc_s", "spark.shuffle_write_bytes", "spark.shuffle_read_bytes", "spark.spill_bytes",
    "trace.run_s", "trace.overhead_s",
  )

  def names(wl: Workload): Seq[String] = wl match {
    case p: PaperTables =>
      "chain.generate_s" +: "chain.rows" +: "chain.cached_bytes" +:
        p.tables.map(_._1).flatMap(t => Seq(s"tables.${t}_s", s"tables.$t.jobs", s"tables.$t.leaked_bytes")) ++:
        ("render.s" +: Engine)
    case _ => Driver ++ Engine
  }

  def unit(name: String): String =
    if (name.endsWith("_s") || name.endsWith(".s")) "s"
    else if (name.endsWith("bytes")) "bytes"
    else if (name.endsWith("ratio")) "ratio"
    else "count"

  private val jobSpan = Map(
    "metrics.jobs" -> "metrics.all", "anomaly.jobs" -> "anomaly.extremes",
    "pipeline.series_jobs" -> "pipeline.series", "pipeline.summary_jobs" -> "pipeline.summary",
  )

  def report(t: Tracer, wl: Workload): Seq[(String, Double, String)] = {
    val qs = (0 until wl.probe).toSet + Workload.SetupQuery
    val spans = t.spans.filter(s => qs(s.query))
    def named(n: String) = spans.filter(_.name == n)
    def self(n: String) = named(n).map(t.selfNs).sum / 1e9
    def dur(n: String) = named(n).map(_.durNs).sum / 1e9
    def jobs(n: String) = named(n).map(s => t.countersOf(s.id).jobs).sum.toDouble
    def noted(n: String): Double = {
      val vs = t.notes.collect { case ((q, k), v) if k == n && qs(q) => v }
      if (vs.isEmpty) 0.0 else if (n.contains("exchanges")) vs.max else vs.sum
    }
    // Engine counters of everything under the probe queries' `run` spans.
    val byId = t.spans.map(s => s.id -> s).toMap
    def underRun(s: Span): Boolean = s.name == "run" || (s.parent >= 0 && underRun(byId(s.parent)))
    val engine = new Counters
    spans.filter(underRun).foreach(s => engine += t.countersOf(s.id))

    def value(n: String): Double = n match {
      case "sliding.expand_ratio" =>
        val in = noted("sliding.rows_in"); if (in == 0) 0.0 else noted("sliding.assigned_rows") / in
      case "trace.run_s"               => dur("run")
      case "trace.overhead_s"          => dur("query") - dur("run")
      case "spark.jobs"                => engine.jobs.toDouble
      case "spark.stages"              => engine.stages.toDouble
      case "spark.tasks"               => engine.tasks.toDouble
      case "spark.failed_tasks"        => engine.failedTasks.toDouble
      case "spark.executor_run_s"      => engine.runMs / 1e3
      case "spark.task_wait_s"         => engine.waitMs / 1e3
      case "spark.gc_s"                => engine.gcMs / 1e3
      case "spark.shuffle_write_bytes" => engine.shuffleWrite.toDouble
      case "spark.shuffle_read_bytes"  => engine.shuffleRead.toDouble
      case "spark.spill_bytes"         => engine.spill.toDouble
      case "render.s"                  => self("render")
      case x if jobSpan.contains(x)    => jobs(jobSpan(x))
      case x if x.startsWith("tables.") && x.endsWith(".jobs") => jobs(x.stripSuffix(".jobs"))
      case x if x.endsWith("_s")       => self(x.stripSuffix("_s"))
      case x                           => noted(x)
    }
    names(wl).map(n => (n, value(n), unit(n)))
  }

  /** Counters that must repeat exactly when the same code runs the same
    * workload and seed.
    */
  def structural(m: Seq[(String, Double, String)]): Seq[(String, Double)] =
    m.collect {
      case (n, v, "count") if !n.startsWith("spark.") || n == "spark.jobs" || n == "spark.stages" => n -> v
    }

  private def stateDir: String = sys.props.getOrElse("perfbench.state", "perfbench-state")

  /** Compares this run's structural counters with the first run of the same
    * build, workload and seed, recording them if this is that run. Returns
    * the counters that differ.
    */
  def determinism(t: Tracer, wl: Workload, args: Main.Args): Seq[String] = {
    val now = structural(report(t, wl)).map { case (n, v) => s"$n=$v" }
    val stamp = sys.props.getOrElse("perfbench.stamp", "unstamped")
    val path = Paths.get(stateDir, s"counters-$stamp-${args.workload}-${args.seed}.txt")
    if (Files.exists(path)) {
      val before = new String(Files.readAllBytes(path), StandardCharsets.UTF_8).split("\n").toSeq
      (now.diff(before) ++ before.diff(now)).distinct.map(c => s"structural counter changed between runs: $c (recorded: $path)")
    } else {
      Json.write(path.toString, now.mkString("\n"))
      Nil
    }
  }

  /** Writes every span of a traced run as JSON next to the build. */
  def writeSpans(t: Option[Tracer], args: Main.Args): Unit = t.foreach { tr =>
    val t0 = tr.spans.headOption.map(_.startNs).getOrElse(0L)
    val rows = tr.spans.map { s =>
      val c = tr.countersOf(s.id)
      Map("id" -> s.id, "name" -> s.name, "parent" -> s.parent, "query" -> s.query,
          "start_ms" -> (s.startNs - t0) / 1e6, "end_ms" -> (s.endNs - t0) / 1e6, "self_ms" -> tr.selfNs(s) / 1e6,
          "jobs" -> c.jobs, "stages" -> c.stages, "tasks" -> c.tasks, "executor_run_ms" -> c.runMs)
    }
    val notes = tr.notes.toSeq.map { case ((q, k), v) => Map("query" -> q, "name" -> k, "value" -> v) }
    Json.write(s"$stateDir/trace-${args.workload}-${args.seed}.json", Json(Map("spans" -> rows, "notes" -> notes)))
  }
}
