// Pipeline robustness across generator extremes: whatever the topology's
// addressing conventions, artifact rates, or population mix, the pipeline
// must stay deterministic, convergent, and high-precision on the
// exact-truth network.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "baselines/claims.h"
#include "eval/experiment.h"

namespace mapit {
namespace {

struct SweepCase {
  const char* name;
  void (*tweak)(eval::ExperimentConfig&);
};

// Without a printer gtest renders GetParam() as the struct's raw bytes, two
// addresses that move with ASLR, and gtest_discover_tests copies that text
// into the ctest name; printing the case name keeps the names stable.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

void all_slash31(eval::ExperimentConfig& c) {
  c.topology.slash31_prob = 1.0;
}
void all_slash30(eval::ExperimentConfig& c) {
  c.topology.slash31_prob = 0.0;
}
void provider_space_everywhere(eval::ExperimentConfig& c) {
  c.topology.transit_from_customer_space_prob = 0.0;
  c.topology.rne_customer_space_prob = 0.0;
}
void customer_space_everywhere(eval::ExperimentConfig& c) {
  c.topology.transit_from_customer_space_prob = 1.0;
  c.topology.rne_customer_space_prob = 1.0;
}
void artifact_storm(eval::ExperimentConfig& c) {
  c.simulation.per_packet_lb_prob = 0.08;
  c.simulation.route_flap_prob = 0.08;
  c.simulation.hop_loss_prob = 0.05;
}
void clean_room(eval::ExperimentConfig& c) {
  c.simulation.per_packet_lb_prob = 0.0;
  c.simulation.route_flap_prob = 0.0;
  c.simulation.hop_loss_prob = 0.0;
  c.topology.buggy_router_prob = 0.0;
  c.topology.egress_reply_router_prob = 0.0;
  c.topology.nat_stub_prob = 0.0;
  c.topology.router_silent_prob = 0.0;
  c.topology.silent_border_as_prob = 0.0;
}
void no_ixps(eval::ExperimentConfig& c) { c.topology.ixp_count = 0; }
void noisy_datasets(eval::ExperimentConfig& c) {
  c.noise.missing_relationship = 0.15;
  c.noise.missing_sibling = 0.5;
  c.noise.missing_ixp_prefix = 0.5;
  c.noise.fallback_only = 0.1;
}

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
    ::testing::Values(SweepCase{"all_slash31", all_slash31},
                      SweepCase{"all_slash30", all_slash30},
                      SweepCase{"provider_space", provider_space_everywhere},
                      SweepCase{"customer_space", customer_space_everywhere},
                      SweepCase{"artifact_storm", artifact_storm},
                      SweepCase{"clean_room", clean_room},
                      SweepCase{"no_ixps", no_ixps},
                      SweepCase{"noisy_datasets", noisy_datasets}),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace mapit
