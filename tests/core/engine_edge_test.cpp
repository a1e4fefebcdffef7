// Engine edge cases: degenerate inputs, iteration caps, divergent
// other-side accounting, final-mapping exposure.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.h"
#include "test_util.h"

namespace mapit::core {
namespace {

using graph::Direction;
using testutil::MiniWorld;
using testutil::find_inference;

TEST(EngineEdge, EmptyCorpus) {
  MiniWorld world({{"1.0.0.0/16", 100}}, {});
  const Result result = world.run();
  EXPECT_TRUE(result.inferences.empty());
  EXPECT_TRUE(result.uncertain.empty());
  EXPECT_TRUE(result.stats.converged);
  EXPECT_TRUE(result.final_mappings.empty());
}

TEST(EngineEdge, AllHopsUnresponsive) {
  MiniWorld world({{"1.0.0.0/16", 100}}, {"0|9.9.9.9|* * *"});
  const Result result = world.run();
  EXPECT_TRUE(result.inferences.empty());
}

TEST(EngineEdge, PrivateOnlyTraces) {
  // Special-purpose addresses never reach the graph, so nothing happens.
  MiniWorld world({{"1.0.0.0/16", 100}},
                  {"0|9.9.9.9|192.168.0.1 10.0.0.1 172.16.0.1"});
  const Result result = world.run();
  EXPECT_TRUE(result.inferences.empty());
}

TEST(EngineEdge, SingleIterationCapStillProducesOutput) {
  MiniWorld world({{"1.0.0.0/16", 100}, {"2.0.0.0/16", 200}},
                  {
                      "0|9.9.9.9|1.0.0.10 2.0.0.2",
                      "1|9.9.9.9|1.0.0.10 2.0.0.6",
                  });
  Options options;
  options.max_iterations = 1;
  const Result result = world.run(options);
  EXPECT_EQ(result.stats.iterations, 1);
  EXPECT_FALSE(result.stats.converged);  // never saw a repeated state
  EXPECT_NE(find_inference(result, "1.0.0.10", Direction::kForward), nullptr);
}

TEST(EngineEdge, FinalMappingsRecordRefinements) {
  MiniWorld world({{"1.0.0.0/16", 100}, {"2.0.0.0/16", 200}},
                  {
                      "0|9.9.9.9|1.0.0.10 2.0.0.2",
                      "1|9.9.9.9|1.0.0.10 2.0.0.6",
                  });
  const Result result = world.run();
  const graph::InterfaceHalf half =
      graph::forward_half(testutil::addr("1.0.0.10"));
  EXPECT_EQ(result.final_mapping(half), 200u);
  // The other side's backward half carries the indirect update too.
  EXPECT_TRUE(result.final_mapping(
      graph::backward_half(testutil::addr("1.0.0.9"))));
  // The list is in (address, direction) order.
  EXPECT_TRUE(std::is_sorted(
      result.final_mappings.begin(), result.final_mappings.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(EngineEdge, DivergentOtherSidesAreCounted) {
  // 5.0.0.1 and 5.0.0.2 form a /30 pair; give each a direct inference
  // naming a different AS pair. 5.0.0.1_b sees AS200 twice; 5.0.0.2_f sees
  // AS300 twice. The engine keeps both but counts the divergence (§4.4.3).
  MiniWorld world(
      {{"5.0.0.0/16", 500},
       {"2.0.0.0/16", 200},
       {"3.0.0.0/16", 300}},
      {
          "0|9.9.9.9|2.0.0.2 5.0.0.1",
          "1|9.9.9.9|2.0.0.6 5.0.0.1",
          "2|9.9.9.9|5.0.0.2 3.0.0.2",
          "3|9.9.9.9|5.0.0.2 3.0.0.6",
      });
  const Result result = world.run();
  ASSERT_NE(find_inference(result, "5.0.0.1", Direction::kBackward), nullptr);
  ASSERT_NE(find_inference(result, "5.0.0.2", Direction::kForward), nullptr);
  EXPECT_EQ(result.stats.divergent_other_sides, 1u);
}

TEST(EngineEdge, MatchingOtherSidesAreNotDivergent) {
  // Same layout but both halves name the same AS pair: no divergence.
  MiniWorld world({{"5.0.0.0/16", 500}, {"2.0.0.0/16", 200}},
                  {
                      "0|9.9.9.9|2.0.0.2 5.0.0.1",
                      "1|9.9.9.9|2.0.0.6 5.0.0.1",
                      "2|9.9.9.9|5.0.0.2 2.0.0.3",
                      "3|9.9.9.9|5.0.0.2 2.0.0.7",
                  });
  const Result result = world.run();
  EXPECT_EQ(result.stats.divergent_other_sides, 0u);
}

TEST(EngineEdge, SiblingDualInferenceKeepsBoth) {
  // §4.4.3: dual inferences naming sibling ASes are retained on both
  // halves (the link identity is unaffected).
  MiniWorld world(
      {{"6.0.0.0/16", 600}, {"7.0.0.0/16", 701}, {"7.1.0.0/16", 702}},
      {
          "0|9.9.9.9|7.0.0.1 6.0.0.1 7.1.0.9",
          "1|9.9.9.9|7.0.0.5 6.0.0.1 7.1.0.13",
      });
  world.orgs().add_sibling_pair(701, 702);
  const Result result = world.run();
  EXPECT_NE(find_inference(result, "6.0.0.1", Direction::kForward), nullptr);
  EXPECT_NE(find_inference(result, "6.0.0.1", Direction::kBackward), nullptr);
  EXPECT_EQ(result.stats.duals_resolved, 0u);
}

TEST(EngineEdge, UnannouncedInterfaceDualIsNotFixed) {
  // §4.4.3: contradictions on unannounced interfaces are left alone
  // because their mapping updates can enable additional inferences.
  MiniWorld world({{"7.0.0.0/16", 700}, {"8.0.0.0/16", 800}},
                  {
                      "0|9.9.9.9|8.0.0.1 66.0.0.1 7.0.0.1",
                      "1|9.9.9.9|8.0.0.5 66.0.0.1 7.0.0.5",
                  });
  const Result result = world.run();
  EXPECT_NE(find_inference(result, "66.0.0.1", Direction::kForward), nullptr);
  EXPECT_NE(find_inference(result, "66.0.0.1", Direction::kBackward), nullptr);
  EXPECT_EQ(result.stats.duals_resolved, 0u);
}

TEST(EngineEdge, SupportRatiosExposed) {
  MiniWorld world(
      {{"1.0.0.0/16", 100}, {"2.0.0.0/16", 200}, {"3.0.0.0/16", 300}},
      {
          "0|9.9.9.9|1.0.0.10 2.0.0.2",
          "1|9.9.9.9|1.0.0.10 2.0.0.6",
          "2|9.9.9.9|1.0.0.10 3.0.0.2",
      });
  const Result result = world.run();
  const Inference* inference =
      find_inference(result, "1.0.0.10", Direction::kForward);
  ASSERT_NE(inference, nullptr);
  EXPECT_EQ(inference->votes, 2u);
  EXPECT_EQ(inference->neighbor_count, 3u);
  EXPECT_NEAR(inference->support(), 2.0 / 3.0, 1e-9);
}

TEST(EngineEdge, EngineStatsAreConsistent) {
  MiniWorld world({{"1.0.0.0/16", 100}, {"2.0.0.0/16", 200}},
                  {
                      "0|9.9.9.9|1.0.0.10 2.0.0.2",
                      "1|9.9.9.9|1.0.0.10 2.0.0.6",
                  });
  const Result result = world.run();
  EXPECT_GE(result.stats.add_passes, result.stats.iterations);
  EXPECT_GE(result.stats.direct_made, 1u);
  EXPECT_TRUE(result.stats.converged);
}

}  // namespace
}  // namespace mapit::core
