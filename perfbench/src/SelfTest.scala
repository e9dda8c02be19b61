package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

import org.apache.spark.sql.Row
import repro.chain.{BlockGenerator, ChainParams}
import repro.core.{Anomaly, FixedWindows, Pipeline, Tables}
import repro.util.Render

/** Proves at small scale that the checks pass on the program's own outputs
  * and catch each result perturbed on the harness side.
  */
object SelfTest {
  def run(): Int = {
    val spark = Main.session()
    val results = ArrayBuffer.empty[(String, Boolean)]
    def clean(name: String, bad: Seq[String]): Unit = {
      bad.foreach(b => println(s"  $b"))
      results += s"passes: $name" -> bad.isEmpty
    }
    def caught(name: String, bad: Seq[String]): Unit = results += s"caught: $name" -> bad.nonEmpty

    // Sliding series, as in eth-sweep (M does not divide N).
    val eth = ChainParams.eth2019.scaled(0.01)
    val ethAttrib = BlockGenerator.attributions(spark, eth, 11L).cache()
    val chain = Reference.chain(ethAttrib, eth.blockCount)
    val mode = Sliding(eth.slidingWeek, eth.slidingWeek / 3)
    val out = Workload.series(eth, ethAttrib, mode).collect()
    def sweep(rows: Array[Row]) = EthSweep.check(rows, chain, mode, new Random(1))
    def patch(rows: Array[Row], col: Int, f: Any => Any): Array[Row] =
      rows.updated(0, Row.fromSeq(rows(0).toSeq.updated(col, f(rows(0).get(col)))))
    clean("sliding series", sweep(out))
    caught("gini one ulp off", sweep(patch(out, 3, { case d: Double => d + math.ulp(d) })))
    caught("entropy 2e-6 off", sweep(patch(out, 4, { case d: Double => d + 2e-6 })))
    caught("nakamoto off by one", sweep(patch(out, 5, { case n: Int => n + 1 })))
    caught("attributions off by one", sweep(patch(out, 2, { case n: Long => n + 1 })))
    caught("last window dropped", sweep(out.dropRight(1)))
    ethAttrib.unpersist(true)

    // Summary, extremes and T1 of a fresh chain, as in btc-seeds.
    val btc = ChainParams.btc2019.scaled(0.1)
    val attrib = BlockGenerator.attributions(spark, btc, 5L)
    val daily = Fixed(FixedWindows.Daily)
    val s = Workload.series(btc, attrib, daily)
    val summary = Pipeline.summary(s).collect().toSeq
    val extremes = Anomaly.extremes(s, "entropy", Workload.Z).collect().toSeq
    val t1 = Render.table(Tables.t1Dataset(Seq(btc -> attrib)))
    def seeds(summ: Seq[Row], ext: Seq[Row], text: String) =
      BtcSeeds.check(spark, btc, 5L, daily, "entropy", summ, ext, text)
    clean("summary, extremes and T1", seeds(summary, extremes, t1))
    val scaledMean = summary.map(r => if (r.getString(0) == "gini") Row.fromSeq(r.toSeq.updated(1, r.getDouble(1) * (1 + 1e-6))) else r)
    caught("summary mean 1e-6 off", seeds(scaledMean, extremes, t1))
    caught("extreme window dropped", seeds(summary, extremes.drop(1), t1))
    val rows = Workload.expectedRows(btc)
    caught("T1 attribution count changed", seeds(summary, extremes, t1.replaceFirst(s" $rows ", s" ${rows + 1} ")))

    // Byte-for-byte report check, as in paper-tables.
    val golden = Paths.get("bench", "results", "T1_dataset.txt")
    if (Files.exists(golden)) {
      val text = new String(Files.readAllBytes(golden), StandardCharsets.UTF_8).stripSuffix("\n")
      clean("committed T1 text", PaperTables.check("T1_dataset", text))
      caught("one byte changed in T1", PaperTables.check("T1_dataset", text.replaceFirst("54231", "54232")))
    }
    spark.stop()

    results.foreach { case (name, ok) => println(s"${if (ok) "ok  " else "FAIL"} $name") }
    val failed = results.count(!_._2)
    println(Json(Map("correct" -> (failed == 0), "attempted" -> results.size, "failed" -> failed, "metrics" -> Map.empty)))
    if (failed == 0) 0 else 1
  }
}
