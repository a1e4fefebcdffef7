// Pipeline robustness across generator extremes: whatever the topology's
// addressing conventions, artifact rates, or population mix, the pipeline
// must stay deterministic, convergent, and high-precision on the
// exact-truth network.
#include <gtest/gtest.h>

#include <string>

#include "baselines/claims.h"
#include "eval/experiment.h"
#include "integration/config_regimes.h"

namespace mapit {
namespace {

using testutil::SweepCase;

class ConfigSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ConfigSweepTest, PipelineStaysSoundAndPrecise) {
  eval::ExperimentConfig config = eval::ExperimentConfig::small();
  GetParam().tweak(config);
  const auto experiment = eval::Experiment::build(config);
  core::Options options;
  options.f = 0.5;
  const core::Result result = experiment->run_mapit(options);

  EXPECT_TRUE(result.stats.converged);
  EXPECT_FALSE(result.inferences.empty());

  const baselines::Claims claims = baselines::claims_from_result(result);
  const eval::AsGroundTruth truth =
      experiment->ground_truth(topo::Generator::rne_asn());
  const eval::Verification v = experiment->evaluator().verify(truth, claims);
  // Precision holds up even in hostile regimes; recall may drop when the
  // corpus is artifact-heavy or visibility-starved.
  EXPECT_GE(v.total.precision(), 0.9) << GetParam().name;
  EXPECT_GT(v.total.tp, 0u) << GetParam().name;

  // Determinism regardless of config.
  const core::Result again = experiment->run_mapit(options);
  EXPECT_EQ(result.inferences, again.inferences) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, ConfigSweepTest,
    ::testing::ValuesIn(testutil::kSweepCases),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace mapit
