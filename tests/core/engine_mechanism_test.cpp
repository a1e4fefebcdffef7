// Mechanism-level tests for individual engine rules: the f threshold,
// plurality strictness, sibling handling, unannounced neighbours, IXP
// behaviour, the stub heuristic's guards, and option toggles.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "net/error.h"
#include "test_util.h"

namespace mapit::core {
namespace {

using graph::Direction;
using testutil::addr;
using testutil::MiniWorld;
using testutil::find_inference;

// N_F(1.0.0.10) = {2.0.0.2, 2.0.0.6, 3.0.0.2}: AS200 holds 2/3.
MiniWorld two_thirds_world() {
  return MiniWorld(
      {{"1.0.0.0/16", 100}, {"2.0.0.0/16", 200}, {"3.0.0.0/16", 300}},
      {
          "0|9.9.9.9|1.0.0.10 2.0.0.2",
          "1|9.9.9.9|1.0.0.10 2.0.0.6",
          "2|9.9.9.9|1.0.0.10 3.0.0.2",
      });
}

TEST(EngineMechanism, FractionThresholdGatesInference) {
  for (double f : {0.0, 0.5, 2.0 / 3.0}) {
    MiniWorld world = two_thirds_world();
    Options options;
    options.f = f;
    const Result result = world.run(options);
    EXPECT_NE(find_inference(result, "1.0.0.10", Direction::kForward), nullptr)
        << "f=" << f;
  }
  for (double f : {0.7, 0.9, 1.0}) {
    MiniWorld world = two_thirds_world();
    Options options;
    options.f = f;
    const Result result = world.run(options);
    EXPECT_EQ(find_inference(result, "1.0.0.10", Direction::kForward), nullptr)
        << "f=" << f;
  }
}

TEST(EngineMechanism, PluralityMustBeStrict) {
  // 2-2 split between AS200 and AS300: no AS appears more than all others.
  MiniWorld world(
      {{"1.0.0.0/16", 100}, {"2.0.0.0/16", 200}, {"3.0.0.0/16", 300}},
      {
          "0|9.9.9.9|1.0.0.10 2.0.0.2",
          "1|9.9.9.9|1.0.0.10 2.0.0.6",
          "2|9.9.9.9|1.0.0.10 3.0.0.2",
          "3|9.9.9.9|1.0.0.10 3.0.0.6",
      });
  const Result result = world.run();
  EXPECT_EQ(find_inference(result, "1.0.0.10", Direction::kForward), nullptr);
}

TEST(EngineMechanism, SingleNeighborNeverInfersDirectly) {
  // §4.3: a direct inference needs at least two neighbour addresses. (The
  // stub heuristic is the one sanctioned single-neighbour path, §4.8 —
  // disabled here to isolate the direct rule.)
  MiniWorld world({{"1.0.0.0/16", 100}, {"2.0.0.0/16", 200}},
                  {"0|9.9.9.9|1.0.0.10 2.0.0.2"});
  Options options;
  options.stub_heuristic = false;
  const Result result = world.run(options);
  EXPECT_EQ(find_inference(result, "1.0.0.10", Direction::kForward), nullptr);
}

TEST(EngineMechanism, NoInferenceWhenMajorityIsOwnAs) {
  MiniWorld world({{"1.0.0.0/16", 100}},
                  {
                      "0|9.9.9.9|1.0.0.10 1.0.0.2",
                      "1|9.9.9.9|1.0.0.10 1.0.0.6",
                  });
  const Result result = world.run();
  EXPECT_TRUE(result.inferences.empty());
}

TEST(EngineMechanism, SiblingsCountAsOneAs) {
  // AS201 and AS202 are siblings; individually neither beats AS300, but
  // grouped they dominate. The representative is the more frequent member.
  MiniWorld world(
      {{"1.0.0.0/16", 100},
       {"2.0.0.0/16", 201},
       {"2.1.0.0/16", 202},
       {"3.0.0.0/16", 300}},
      {
          "0|9.9.9.9|1.0.0.10 2.0.0.2",
          "1|9.9.9.9|1.0.0.10 2.1.0.2",
          "2|9.9.9.9|1.0.0.10 2.1.0.6",
          "3|9.9.9.9|1.0.0.10 3.0.0.2",
          "4|9.9.9.9|1.0.0.10 3.0.0.6",
      });
  world.orgs().add_sibling_pair(201, 202);
  const Result result = world.run();
  const Inference* inference =
      find_inference(result, "1.0.0.10", Direction::kForward);
  ASSERT_NE(inference, nullptr);
  EXPECT_EQ(inference->router_as, 202u);  // most frequent sibling
}

TEST(EngineMechanism, SiblingGroupingCanBeDisabled) {
  MiniWorld world(
      {{"1.0.0.0/16", 100},
       {"2.0.0.0/16", 201},
       {"2.1.0.0/16", 202},
       {"3.0.0.0/16", 300}},
      {
          "0|9.9.9.9|1.0.0.10 2.0.0.2",
          "1|9.9.9.9|1.0.0.10 2.1.0.2",
          "2|9.9.9.9|1.0.0.10 2.1.0.6",
          "3|9.9.9.9|1.0.0.10 3.0.0.2",
          "4|9.9.9.9|1.0.0.10 3.0.0.6",
      });
  world.orgs().add_sibling_pair(201, 202);
  Options options;
  options.sibling_grouping = false;
  options.f = 0.5;
  // Ungrouped: AS202 has 2 votes = AS300's 2 votes -> tie -> nothing.
  const Result result = world.run(options);
  EXPECT_EQ(find_inference(result, "1.0.0.10", Direction::kForward), nullptr);
}

TEST(EngineMechanism, NoInterSiblingInference) {
  // The dominating AS is a sibling of the interface's own AS: the border
  // between siblings is not inferred (§4.9).
  MiniWorld world({{"1.0.0.0/16", 100}, {"2.0.0.0/16", 200}},
                  {
                      "0|9.9.9.9|1.0.0.10 2.0.0.2",
                      "1|9.9.9.9|1.0.0.10 2.0.0.6",
                  });
  world.orgs().add_sibling_pair(100, 200);
  const Result result = world.run();
  EXPECT_EQ(find_inference(result, "1.0.0.10", Direction::kForward), nullptr);
}

TEST(EngineMechanism, UnannouncedNeighborsDiluteTheFraction) {
  // N_F = {2.0.0.2 (AS200), 66.0.0.2 (unannounced), 66.0.0.6 (unannounced)}:
  // AS200 is the strict plurality, but only 1/3 of |N|.
  MiniWorld world({{"1.0.0.0/16", 100}, {"2.0.0.0/16", 200}},
                  {
                      "0|9.9.9.9|1.0.0.10 2.0.0.2",
                      "1|9.9.9.9|1.0.0.10 66.0.0.2",
                      "2|9.9.9.9|1.0.0.10 66.0.0.6",
                  });
  Options options;
  options.f = 0.5;
  const Result result = world.run(options);
  EXPECT_EQ(find_inference(result, "1.0.0.10", Direction::kForward), nullptr);
  // With a permissive f the strict plurality suffices. The §4.5 majority
  // remove rule would take the inference back (1 of 3 is under half), so
  // observe it under the add-rule variant.
  Options loose;
  loose.f = 0.0;
  loose.remove_rule = RemoveRule::kAddRule;
  const Result result2 = world.run(loose);
  const Inference* inference =
      find_inference(result2, "1.0.0.10", Direction::kForward);
  ASSERT_NE(inference, nullptr);
  EXPECT_EQ(inference->router_as, 200u);
}

TEST(EngineMechanism, UnannouncedInterfaceCanStillBeInferred) {
  // §4.4.3: interfaces without IP2AS mappings receive inferences (they
  // enable later updates); the pair's other side is simply unknown.
  MiniWorld world({{"2.0.0.0/16", 200}},
                  {
                      "0|9.9.9.9|66.0.0.10 2.0.0.2",
                      "1|9.9.9.9|66.0.0.10 2.0.0.6",
                  });
  const Result result = world.run();
  const Inference* inference =
      find_inference(result, "66.0.0.10", Direction::kForward);
  ASSERT_NE(inference, nullptr);
  EXPECT_EQ(inference->router_as, 200u);
  EXPECT_EQ(inference->other_as, asdata::kUnknownAsn);
  EXPECT_FALSE(inference->complete());
}

TEST(EngineMechanism, IxpInterfaceSkipsOtherSideUpdate) {
  // Footnote 7: inferences on known-IXP interfaces do not propagate to a
  // /30-/31 "other side" (IXP LANs are multipoint).
  MiniWorld world({{"2.0.0.0/16", 200}},
                  {
                      "0|9.9.9.9|195.1.0.9 2.0.0.2",
                      "1|9.9.9.9|195.1.0.9 2.0.0.6",
                  });
  world.ixps().add_prefix(testutil::pfx("195.1.0.0/24"), 1);
  const Result result = world.run();
  // The IXP address itself is inferred...
  ASSERT_NE(find_inference(result, "195.1.0.9", Direction::kForward), nullptr);
  // ...but no indirect inference lands on 195.1.0.10 (its /30 partner).
  EXPECT_EQ(find_inference(result, "195.1.0.10", Direction::kBackward),
            nullptr);
}

TEST(EngineMechanism, OtherSideUpdatesCanBeDisabled) {
  MiniWorld world({{"1.0.0.0/16", 100}, {"2.0.0.0/16", 200}},
                  {
                      "0|9.9.9.9|1.0.0.10 2.0.0.2",
                      "1|9.9.9.9|1.0.0.10 2.0.0.6",
                  });
  Options options;
  options.update_other_sides = false;
  const Result result = world.run(options);
  EXPECT_NE(find_inference(result, "1.0.0.10", Direction::kForward), nullptr);
  EXPECT_EQ(find_inference(result, "1.0.0.9", Direction::kBackward), nullptr);
}

// ---------------------------------------------------------------------------
// Stub heuristic (§4.8).
// ---------------------------------------------------------------------------

MiniWorld stub_world() {
  // 12.0.0.9 (provider AS1200) always precedes the single stub address
  // 13.0.0.77 (AS1300, e.g. a NAT). N_B(12.0.0.9) stays inside AS1200.
  MiniWorld world({{"12.0.0.0/16", 1200}, {"13.0.0.0/16", 1300}},
                  {
                      "0|13.0.0.77|12.0.0.1 12.0.0.9 13.0.0.77",
                      "1|13.0.0.77|12.0.0.5 12.0.0.9 13.0.0.77",
                  });
  world.relationships().add_transit(1200, 1300);
  return world;
}

TEST(EngineMechanism, StubHeuristicInfersLowVisibilityLink) {
  MiniWorld world = stub_world();
  const Result result = world.run();
  const Inference* inference =
      find_inference(result, "12.0.0.9", Direction::kForward);
  ASSERT_NE(inference, nullptr);
  EXPECT_EQ(inference->kind, InferenceKind::kStub);
  EXPECT_EQ(inference->router_as, 1300u);
  EXPECT_EQ(inference->other_as, 1200u);
  EXPECT_EQ(result.stats.stub_inferences, 1u);
  // The other side (12.0.0.10) carries the mirrored indirect inference.
  const Inference* indirect =
      find_inference(result, "12.0.0.10", Direction::kBackward);
  ASSERT_NE(indirect, nullptr);
  EXPECT_EQ(indirect->kind, InferenceKind::kIndirect);
}

TEST(EngineMechanism, StubHeuristicRequiresStubAs) {
  MiniWorld world = stub_world();
  // Give AS1300 a customer: it is no longer a stub.
  world.relationships().add_transit(1300, 9999);
  const Result result = world.run();
  EXPECT_EQ(find_inference(result, "12.0.0.9", Direction::kForward), nullptr);
  EXPECT_EQ(result.stats.stub_inferences, 0u);
}

TEST(EngineMechanism, StubHeuristicSkipsSiblings) {
  MiniWorld world = stub_world();
  world.orgs().add_sibling_pair(1200, 1300);
  const Result result = world.run();
  EXPECT_EQ(result.stats.stub_inferences, 0u);
}

TEST(EngineMechanism, StubHeuristicSkipsMultiNeighborHalves) {
  // |N_F| must be exactly one.
  MiniWorld world({{"12.0.0.0/16", 1200}, {"13.0.0.0/16", 1300}},
                  {
                      "0|13.0.0.77|12.0.0.1 12.0.0.9 13.0.0.77",
                      "1|13.0.0.77|12.0.0.5 12.0.0.9 13.0.0.78",
                  });
  const Result result = world.run();
  EXPECT_EQ(result.stats.stub_inferences, 0u);
}

TEST(EngineMechanism, StubHeuristicSkipsWhenNeighborHasInference) {
  // A backward inference already exists on the neighbour: the link was
  // found the normal way and the heuristic must stand down.
  MiniWorld world({{"12.0.0.0/16", 1200}, {"13.0.0.0/16", 1300}},
                  {
                      "0|13.0.0.77|12.0.0.1 12.0.0.9 13.0.0.77",
                      "1|13.0.0.77|12.0.0.5 12.0.0.9 13.0.0.77",
                      // expose a second predecessor of 13.0.0.77 so a
                      // normal backward inference fires on it
                      "2|13.0.0.77|12.0.0.13 13.0.0.77",
                  });
  world.relationships().add_transit(1200, 1300);
  const Result result = world.run();
  const Inference* backward =
      find_inference(result, "13.0.0.77", Direction::kBackward);
  ASSERT_NE(backward, nullptr);
  EXPECT_EQ(backward->kind, InferenceKind::kDirect);
  EXPECT_EQ(result.stats.stub_inferences, 0u);
}

TEST(EngineMechanism, StubHeuristicCanBeDisabled) {
  MiniWorld world = stub_world();
  Options options;
  options.stub_heuristic = false;
  const Result result = world.run(options);
  EXPECT_TRUE(result.inferences.empty());
}

// ---------------------------------------------------------------------------
// Remove-step demotion (§4.5).
// ---------------------------------------------------------------------------

// A half whose direct inference is demoted may already carry a live
// indirect inference propagated from the other side's direct inference.
// Demotion must not clobber it: the demoted half keeps the other side's
// mapping, not a stale copy of its own withdrawn one.
//
// The world: X = {11.0.0.1, forward} first wins a direct inference for
// AS200 (both forward neighbours are 20.0.0.x). Its /30 other side
// O = {11.0.0.2, backward} wins a direct inference for AS400 (both
// backward neighbours are 40.0.0.x) and propagates 400 onto X as an
// indirect inference. The remove step then withdraws X's direct inference
// (its neighbours' refined mappings split 300/350, so AS200 gets no
// votes) while O's survives — so X's mapping must revert to O's 400.
MiniWorld demotion_world() {
  return MiniWorld({{"11.0.0.0/16", 100},
                    {"20.0.0.0/16", 200},
                    {"30.0.0.0/16", 300},
                    {"35.0.0.0/16", 350},
                    {"40.0.0.0/16", 400}},
                   {
                       "0|9.9.9.9|11.0.0.1 20.0.0.2",
                       "1|9.9.9.9|11.0.0.1 20.0.0.6",
                       "2|9.9.9.9|30.0.0.2 20.0.0.2",
                       "3|9.9.9.9|30.0.0.6 20.0.0.2",
                       "4|9.9.9.9|35.0.0.2 20.0.0.6",
                       "5|9.9.9.9|35.0.0.6 20.0.0.6",
                       "6|9.9.9.9|40.0.0.2 11.0.0.2",
                       "7|9.9.9.9|40.0.0.6 11.0.0.2",
                   });
}

TEST(EngineMechanism, DemotionPreservesLiveIndirectInference) {
  MiniWorld world = demotion_world();
  const Result result = world.run();

  // The other side's direct inference survives the remove step…
  const Inference* other = find_inference(result, "11.0.0.2",
                                          Direction::kBackward);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->router_as, 400u);

  // …so the demoted half must end up mapped to its AS400, not keep a
  // stale copy of its own withdrawn AS200 inference.
  const graph::InterfaceHalf x{addr("11.0.0.1"), Direction::kForward};
  EXPECT_EQ(result.final_mapping(x), 400u);
}

TEST(EngineMechanism, DemotionsAndRemovalsAreCounted) {
  MiniWorld world = demotion_world();
  const Result result = world.run();
  // X's direct inference is demoted; the indirect inference X had earlier
  // propagated onto O dies with it in the same remove step.
  EXPECT_EQ(result.stats.demoted_in_remove_step, 1u);
  EXPECT_EQ(result.stats.removed_in_remove_step, 1u);
}

// ---------------------------------------------------------------------------
// Determinism and bookkeeping.
// ---------------------------------------------------------------------------

TEST(EngineMechanism, RunIsIdempotent) {
  MiniWorld world = two_thirds_world();
  world.freeze();
  Engine engine(world.graph(), world.ip2as(), world.orgs(),
                world.relationships(), Options{});
  const Result first = engine.run();
  const Result second = engine.run();
  EXPECT_EQ(first.inferences, second.inferences);
  EXPECT_EQ(first.uncertain, second.uncertain);
}

TEST(EngineMechanism, OptionsValidation) {
  MiniWorld world = two_thirds_world();
  world.freeze();
  Options bad_f;
  bad_f.f = 1.5;
  EXPECT_THROW((Engine(world.graph(), world.ip2as(), world.orgs(),
                       world.relationships(), bad_f)),
               mapit::InvariantError);
  Options bad_iters;
  bad_iters.max_iterations = 0;
  EXPECT_THROW((Engine(world.graph(), world.ip2as(), world.orgs(),
                       world.relationships(), bad_iters)),
               mapit::InvariantError);
}

TEST(EngineMechanism, SnapshotsFollowPipelineOrder) {
  MiniWorld world = two_thirds_world();
  Options options;
  options.capture_snapshots = true;
  const Result result = world.run(options);
  ASSERT_GE(result.snapshots.size(), 5u);
  EXPECT_EQ(result.snapshots[0].label, "Direct");
  EXPECT_EQ(result.snapshots[1].label, "P2P");
  EXPECT_EQ(result.snapshots[2].label, "Inverse");
  EXPECT_EQ(result.snapshots[3].label, "Add");
  EXPECT_EQ(result.snapshots.back().label, "Stub");
}

TEST(EngineMechanism, NoSnapshotsByDefault) {
  MiniWorld world = two_thirds_world();
  const Result result = world.run();
  EXPECT_TRUE(result.snapshots.empty());
}

TEST(EngineMechanism, ResultLookupHelpers) {
  MiniWorld world = two_thirds_world();
  const Result result = world.run();
  const auto on_address = [&](const char* address) {
    return result.find(graph::forward_half(testutil::addr(address))) !=
               nullptr ||
           result.find(graph::backward_half(testutil::addr(address))) !=
               nullptr;
  };
  EXPECT_TRUE(on_address("1.0.0.10"));
  EXPECT_FALSE(on_address("77.0.0.1"));
}

TEST(EngineMechanism, InferenceToString) {
  Inference inference{graph::forward_half(testutil::addr("1.0.0.10")), 200,
                      100, InferenceKind::kDirect, false};
  EXPECT_EQ(inference.to_string(), "1.0.0.10_f: AS200 <-> AS100 (direct)");
  inference.uncertain = true;
  inference.kind = InferenceKind::kStub;
  EXPECT_EQ(inference.to_string(),
            "1.0.0.10_f: AS200 <-> AS100 (stub, uncertain)");
}

}  // namespace
}  // namespace mapit::core
