package repro.jobs

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.chain.{ChainParams, ChainSpec}
import repro.core.Tables
import repro.util.Render

/** Shared spark-submit plumbing for the per-table entrypoints.
  *
  * Every job accepts an optional first argument: a scale factor in (0, 1]
  * applied to both chains (default 1.0 = the paper's full 2019 scale).
  */
object Jobs {
  def session(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()

  def scaleOf(args: Array[String]): Double =
    args.headOption.map(_.toDouble).getOrElse(1.0)

  def spec(base: ChainSpec, scale: Double): ChainSpec = {
    require(scale > 0.0 && scale <= 1.0, s"scale must be in (0, 1], got $scale")
    if (scale == 1.0) base else base.scaled(scale)
  }

  def emit(title: String, df: DataFrame): Unit = {
    println(s"\n== $title")
    println(Render.table(df))
  }
}

/** T1 — dataset summary (paper §II-A). */
object T1Dataset {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("t1-dataset"); val f = Jobs.scaleOf(args)
    val chains = Seq(Jobs.spec(ChainParams.btc2019, f), Jobs.spec(ChainParams.eth2019, f))
      .map(s => s -> SynthData.blockAttributions(spark, s))
    Jobs.emit("T1 dataset summary", Tables.t1Dataset(chains))
    spark.stop()
  }
}

/** T2 — Bitcoin fixed-window metric summary (paper Figs. 1–3). */
object T2FixedBitcoin {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("t2-fixed-btc"); val f = Jobs.scaleOf(args)
    val s = Jobs.spec(ChainParams.btc2019, f)
    Jobs.emit("T2 Bitcoin fixed windows",
      Tables.fixedSummary(s.name, SynthData.blockAttributions(spark, s)))
    spark.stop()
  }
}

/** T3 — Ethereum fixed-window metric summary (paper Figs. 4–6). */
object T3FixedEthereum {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("t3-fixed-eth"); val f = Jobs.scaleOf(args)
    val s = Jobs.spec(ChainParams.eth2019, f)
    Jobs.emit("T3 Ethereum fixed windows",
      Tables.fixedSummary(s.name, SynthData.blockAttributions(spark, s)))
    spark.stop()
  }
}

/** T4 — sliding-window averages and result counts (paper §III-B, Eq. 5). */
object T4SlidingAverages {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("t4-sliding"); val f = Jobs.scaleOf(args)
    for (base <- Seq(ChainParams.btc2019, ChainParams.eth2019)) {
      val s = Jobs.spec(base, f)
      Jobs.emit(s"T4 sliding windows — ${s.name}",
        Tables.slidingSummary(s, SynthData.blockAttributions(spark, s)))
    }
    spark.stop()
  }
}

/** T5 — extremes revealed by sliding vs fixed windows (paper Figs. 9/13). */
object T5AnomalyReveal {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("t5-reveal"); val f = Jobs.scaleOf(args)
    for (base <- Seq(ChainParams.btc2019, ChainParams.eth2019)) {
      val s = Jobs.spec(base, f)
      Jobs.emit(s"T5 fixed vs sliding extremes — ${s.name}",
        Tables.revealSummary(s, SynthData.blockAttributions(spark, s)))
    }
    spark.stop()
  }
}

/** T6 — the day-14 Bitcoin anomaly case study (paper §II-C-1d). */
object T6Day14Case {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("t6-day14"); val f = Jobs.scaleOf(args)
    val s = Jobs.spec(ChainParams.btc2019, f)
    Jobs.emit("T6 Bitcoin day-14 case study",
      Tables.day14Case(SynthData.blockAttributions(spark, s)))
    spark.stop()
  }
}

/** T7 — Bitcoin vs Ethereum comparison (paper §II-C-3). */
object T7Comparison {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("t7-compare"); val f = Jobs.scaleOf(args)
    val b = Jobs.spec(ChainParams.btc2019, f)
    val e = Jobs.spec(ChainParams.eth2019, f)
    Jobs.emit("T7 Bitcoin vs Ethereum",
      Tables.comparison(
        SynthData.blockAttributions(spark, b),
        SynthData.blockAttributions(spark, e)))
    spark.stop()
  }
}

/** All tables in one run (convenience entrypoint). */
object RunAll {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("run-all"); val f = Jobs.scaleOf(args)
    val b = Jobs.spec(ChainParams.btc2019, f)
    val e = Jobs.spec(ChainParams.eth2019, f)
    val ba = SynthData.blockAttributions(spark, b).cache()
    val ea = SynthData.blockAttributions(spark, e).cache()
    Jobs.emit("T1 dataset summary", Tables.t1Dataset(Seq(b -> ba, e -> ea)))
    Jobs.emit("T2 Bitcoin fixed windows", Tables.fixedSummary(b.name, ba))
    Jobs.emit("T3 Ethereum fixed windows", Tables.fixedSummary(e.name, ea))
    Jobs.emit("T4 sliding — bitcoin", Tables.slidingSummary(b, ba))
    Jobs.emit("T4 sliding — ethereum", Tables.slidingSummary(e, ea))
    Jobs.emit("T5 reveal — bitcoin", Tables.revealSummary(b, ba))
    Jobs.emit("T5 reveal — ethereum", Tables.revealSummary(e, ea))
    Jobs.emit("T6 day-14 case study", Tables.day14Case(ba))
    Jobs.emit("T7 comparison", Tables.comparison(ba, ea))
    spark.stop()
  }
}
