package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import repro.SparkSpec
import repro.chain.{BlockGenerator, ChainParams}

/** Structural gate on the plans of the metrics layer: the number of shuffle
  * exchanges each pipeline stage adds. A plan that regrows joins or window
  * sorts fails here without any timing noise.
  *
  * The counts frames are cached, so only the exchanges of the stage under
  * test are counted (a cached relation's own plan ran earlier).
  */
class PlanShapeSpec extends SparkSpec {

  private lazy val spec = ChainParams.btc2019.scaled(0.02)
  private lazy val attrib = BlockGenerator.attributions(spark, spec, seed = 5L).cache()
  private lazy val fixedCounts: DataFrame =
    FixedWindows.counts(attrib, FixedWindows.Daily).cache()
  private lazy val slidingCounts: DataFrame =
    SlidingWindows.counts(attrib, spec.slidingDay, spec.slidingDay / 2, spec.blockCount).cache()

  /** Runs `df` and counts the `ShuffleExchangeExec` nodes of its final
    * adaptive plan. Reused exchanges are not counted.
    */
  private def exchanges(df: DataFrame): Int = {
    df.collect()
    PlanShapeSpec.exchanges(df.queryExecution.executedPlan)
  }

  test("Metrics.all plans a single shuffle exchange") {
    assert(exchanges(Metrics.all(fixedCounts)) === 1)
    assert(exchanges(Metrics.all(slidingCounts)) === 1)
  }

  test("Pipeline.series over fixed counts plans at most 2 exchanges") {
    assert(exchanges(Pipeline.series(fixedCounts)) <= 2)
  }

  test("Pipeline.series over sliding counts plans at most 2 exchanges") {
    assert(exchanges(Pipeline.series(slidingCounts)) <= 2)
  }
}

object PlanShapeSpec {
  def exchanges(p: SparkPlan): Int = p match {
    case a: AdaptiveSparkPlanExec => exchanges(a.executedPlan)
    case s: QueryStageExec        => exchanges(s.plan)
    case e: ShuffleExchangeExec   => 1 + e.children.map(exchanges).sum
    case other                    => other.children.map(exchanges).sum
  }
}
