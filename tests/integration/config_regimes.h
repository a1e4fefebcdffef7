// The generator regimes ConfigSweepTest runs the pipeline under: extreme
// addressing conventions, artifact rates and dataset noise. Shared with the
// reference differential test, which checks the engine on each of them.
#pragma once

#include <array>
#include <ostream>

#include "eval/experiment.h"

namespace mapit::testutil {

struct SweepCase {
  const char* name;
  void (*tweak)(eval::ExperimentConfig&);
};

// Without a printer gtest renders GetParam() as the struct's raw bytes, two
// addresses that move with ASLR, and gtest_discover_tests copies that text
// into the ctest name; printing the case name keeps the names stable.
inline void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

inline void all_slash31(eval::ExperimentConfig& c) {
  c.topology.slash31_prob = 1.0;
}
inline void all_slash30(eval::ExperimentConfig& c) {
  c.topology.slash31_prob = 0.0;
}
inline void provider_space_everywhere(eval::ExperimentConfig& c) {
  c.topology.transit_from_customer_space_prob = 0.0;
  c.topology.rne_customer_space_prob = 0.0;
}
inline void customer_space_everywhere(eval::ExperimentConfig& c) {
  c.topology.transit_from_customer_space_prob = 1.0;
  c.topology.rne_customer_space_prob = 1.0;
}
inline void artifact_storm(eval::ExperimentConfig& c) {
  c.simulation.per_packet_lb_prob = 0.08;
  c.simulation.route_flap_prob = 0.08;
  c.simulation.hop_loss_prob = 0.05;
}
inline void clean_room(eval::ExperimentConfig& c) {
  c.simulation.per_packet_lb_prob = 0.0;
  c.simulation.route_flap_prob = 0.0;
  c.simulation.hop_loss_prob = 0.0;
  c.topology.buggy_router_prob = 0.0;
  c.topology.egress_reply_router_prob = 0.0;
  c.topology.nat_stub_prob = 0.0;
  c.topology.router_silent_prob = 0.0;
  c.topology.silent_border_as_prob = 0.0;
}
inline void no_ixps(eval::ExperimentConfig& c) { c.topology.ixp_count = 0; }
inline void noisy_datasets(eval::ExperimentConfig& c) {
  c.noise.missing_relationship = 0.15;
  c.noise.missing_sibling = 0.5;
  c.noise.missing_ixp_prefix = 0.5;
  c.noise.fallback_only = 0.1;
}

inline constexpr std::array<SweepCase, 8> kSweepCases = {{
    {"all_slash31", all_slash31},
    {"all_slash30", all_slash30},
    {"provider_space", provider_space_everywhere},
    {"customer_space", customer_space_everywhere},
    {"artifact_storm", artifact_storm},
    {"clean_room", clean_room},
    {"no_ixps", no_ixps},
    {"noisy_datasets", noisy_datasets},
}};

}  // namespace mapit::testutil
