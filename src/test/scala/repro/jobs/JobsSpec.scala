package repro.jobs

import org.scalatest.funsuite.AnyFunSuite
import repro.chain.ChainParams

/** Argument checks of the spark-submit entrypoints' shared plumbing. */
class JobsSpec extends AnyFunSuite {

  test("spec keeps the full-scale chain at scale 1 and scales below it") {
    val base = ChainParams.btc2019
    assert(Jobs.spec(base, 1.0) === base)
    assert(Jobs.spec(base, 0.5).blockCount < base.blockCount)
  }

  test("spec rejects a scale outside (0, 1]") {
    for (bad <- Seq(2.0, 1.0001, 0.0, -0.5, Double.NaN))
      intercept[IllegalArgumentException](Jobs.spec(ChainParams.btc2019, bad))
  }
}
