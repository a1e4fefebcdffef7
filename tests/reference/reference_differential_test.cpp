// Differential test of core::Engine against the independent reference
// (reference/naive_mapit.h): at threads 1, 2 and 8 the engine must write
// byte-identical confident and uncertain inferences and produce equal final
// mappings. The inputs are the small experiment at four seeds over the f
// operating points and both remove rules, a battery of 32 more random small
// topologies (also stopped at every boundary of their first two iterations
// and resumed in a fresh engine), every ConfigSweepTest regime, and an
// IngestPipeline folding the small corpus in seeded random batches,
// compared after every fold.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/result_io.h"
#include "eval/experiment.h"
#include "ingest/pipeline.h"
#include "integration/config_regimes.h"
#include "reference/naive_mapit.h"
#include "test_util.h"
#include "trace/trace_io.h"

namespace mapit {
namespace {

std::string written(const std::vector<core::Inference>& inferences) {
  std::ostringstream out;
  core::write_inferences(out, inferences);
  return out.str();
}

void expect_same(const core::Result& actual,
                 const reference::Output& expected, const std::string& label) {
  EXPECT_EQ(written(actual.inferences), written(expected.inferences))
      << label;
  EXPECT_EQ(written(actual.uncertain), written(expected.uncertain)) << label;
  EXPECT_EQ(actual.final_mappings, expected.final_mappings) << label;
}

/// Runs the reference, expects a fresh engine at threads 1, 2 and 8 to
/// match it, and returns it (callers guard against vacuous inputs).
reference::Output expect_engine_matches_reference(
    const graph::InterfaceGraph& graph, const bgp::Ip2As& ip2as,
    const asdata::As2Org& orgs, const asdata::AsRelationships& rels,
    core::Options options, const std::string& label) {
  reference::Output expected =
      reference::naive_mapit(graph, ip2as, orgs, rels, options);
  for (const unsigned threads : {1u, 2u, 8u}) {
    options.threads = threads;
    expect_same(core::run_mapit(graph, ip2as, orgs, rels, options), expected,
                label + " threads=" + std::to_string(threads));
  }
  return expected;
}

/// The small experiment with `mapit simulate --seed`'s seed derivation.
eval::ExperimentConfig small_config(std::uint64_t seed) {
  eval::ExperimentConfig config = eval::ExperimentConfig::small();
  config.topology.seed = seed;
  config.simulation.seed = seed ^ 0xFEEDu;
  config.dataset_seed = seed ^ 0xBEEFu;
  return config;
}

class ReferenceSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReferenceSeedTest, EngineMatchesReference) {
  const auto exp = eval::Experiment::build(small_config(GetParam()));
  for (const double f : {0.5, 0.75, 1.0}) {
    for (const core::RemoveRule rule :
         {core::RemoveRule::kMajority, core::RemoveRule::kAddRule}) {
      core::Options options;
      options.f = f;
      options.remove_rule = rule;
      const reference::Output expected = expect_engine_matches_reference(
          exp->graph(), exp->ip2as(), exp->orgs(), exp->relationships(),
          options,
          "f=" + std::to_string(f) +
              " rule=" + std::to_string(static_cast<int>(rule)));
      EXPECT_FALSE(expected.inferences.empty());
      EXPECT_FALSE(expected.final_mappings.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallExperiment, ReferenceSeedTest,
    ::testing::Values(std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{42},
                      std::uint64_t{1234}),
    [](const ::testing::TestParamInfo<std::uint64_t>& param_info) {
      return "Seed" + std::to_string(param_info.param);
    });

// Random small topologies (seeds 100-131). An uninterrupted run opens its
// steps from their pending sets; a run stopped at one of the first four
// boundaries (those of iterations 1 and 2) and resumed in a fresh engine
// opens its next add and remove steps with full sweeps. Both must match the
// reference, which recounts every half on every pass.
class ReferenceRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReferenceRandomTest, EngineAndResumedRunsMatchReference) {
  const auto exp = eval::Experiment::build(small_config(GetParam()));
  for (const double f : {0.5, 1.0}) {
    for (const core::RemoveRule rule :
         {core::RemoveRule::kMajority, core::RemoveRule::kAddRule}) {
      core::Options options;
      options.f = f;
      options.remove_rule = rule;
      const std::string label =
          "f=" + std::to_string(f) +
          " rule=" + std::to_string(static_cast<int>(rule));
      const reference::Output expected =
          reference::naive_mapit(exp->graph(), exp->ip2as(), exp->orgs(),
                                 exp->relationships(), options);
      EXPECT_FALSE(expected.inferences.empty()) << label;
      for (const unsigned threads : {1u, 2u}) {
        options.threads = threads;
        expect_same(core::run_mapit(exp->graph(), exp->ip2as(), exp->orgs(),
                                    exp->relationships(), options),
                    expected, label + " threads=" + std::to_string(threads));
      }

      int resumed = 0;
      for (int stop_at = 1; stop_at <= 4; ++stop_at) {
        options.threads = 1;
        core::Engine stopped_engine(exp->graph(), exp->ip2as(), exp->orgs(),
                                    exp->relationships(), options);
        std::string blob;
        int boundaries = 0;
        core::RunControl stop;
        stop.on_boundary = [&](core::RunBoundary, int) {
          if (++boundaries < stop_at) return true;
          blob = stopped_engine.save_state();
          return false;
        };
        const core::RunOutcome stopped = stopped_engine.run_controlled(stop);
        if (stopped.completed()) break;  // converged before this boundary

        options.threads = 2;
        core::Engine resumed_engine(exp->graph(), exp->ip2as(), exp->orgs(),
                                    exp->relationships(), options);
        core::RunControl resume;
        resume.resume_state = &blob;
        resume.resume_boundary = stopped.stopped_at;
        const core::RunOutcome outcome = resumed_engine.run_controlled(resume);
        ASSERT_TRUE(outcome.completed()) << label << " stop " << stop_at;
        expect_same(*outcome.result, expected,
                    label + " resumed at boundary " + std::to_string(stop_at));
        ++resumed;
      }
      // A run converges at iteration 2 at the earliest, so it passes at
      // least three boundaries.
      EXPECT_GE(resumed, 3) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallTopologies, ReferenceRandomTest,
    ::testing::Range(std::uint64_t{100}, std::uint64_t{132}),
    [](const ::testing::TestParamInfo<std::uint64_t>& param_info) {
      return "Seed" + std::to_string(param_info.param);
    });

class ReferenceRegimeTest
    : public ::testing::TestWithParam<testutil::SweepCase> {};

TEST_P(ReferenceRegimeTest, EngineMatchesReference) {
  eval::ExperimentConfig config = eval::ExperimentConfig::small();
  GetParam().tweak(config);
  const auto exp = eval::Experiment::build(config);
  EXPECT_FALSE(expect_engine_matches_reference(
                   exp->graph(), exp->ip2as(), exp->orgs(),
                   exp->relationships(), {}, GetParam().name)
                   .inferences.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, ReferenceRegimeTest, ::testing::ValuesIn(testutil::kSweepCases),
    [](const ::testing::TestParamInfo<testutil::SweepCase>& param_info) {
      return std::string(param_info.param.name);
    });

// The small experiments hold no unresolvable inverse pair, so the §4.4.4
// uncertain path is compared on the hand-built stalemate of
// EngineScenario.UnresolvableInversePairBecomesUncertain.
TEST(ReferenceMiniWorldTest, UncertainInversePairMatchesReference) {
  testutil::MiniWorld world(
      {{"9.0.0.0/16", 900}, {"11.0.0.0/16", 1100}},
      {
          "0|9.9.9.9|9.0.0.10 9.0.50.1 11.0.0.1 11.0.0.9",
          "1|9.9.9.9|9.0.0.14 9.0.50.5 11.0.0.1 11.0.0.9",
          "2|9.9.9.9|9.0.70.1 11.0.0.1 11.0.0.9",
          "3|9.9.9.9|9.0.0.10 9.0.50.1 11.0.0.5 11.0.0.9",
          "4|9.9.9.9|9.0.0.10 9.0.50.1 11.0.0.7 11.0.0.9",
          "5|9.9.9.9|11.0.0.50 11.0.0.2 9.0.60.1",
          "6|9.9.9.9|11.0.0.54 11.0.0.2 9.0.60.5",
      });
  for (const core::RemoveRule rule :
       {core::RemoveRule::kMajority, core::RemoveRule::kAddRule}) {
    core::Options options;
    options.remove_rule = rule;
    EXPECT_FALSE(expect_engine_matches_reference(
                     world.graph(), world.ip2as(), world.orgs(),
                     world.relationships(), options,
                     "rule=" + std::to_string(static_cast<int>(rule)))
                     .uncertain.empty());
  }
}

// The ingest path: one pipeline folds the rest of the small corpus onto a
// base in random batches. After every fold the pipeline's resident engine
// and a fresh engine (at every thread count) must match the reference.
TEST(ReferenceIngestTest, FoldedGraphsMatchReference) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("mapit_reference_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const eval::ExperimentConfig config = small_config(1);
  const auto exp = eval::Experiment::build(config);
  const std::vector<trace::Trace>& traces = exp->raw_corpus().traces();
  {
    std::ofstream rib(dir / "rib.txt");
    exp->internet().export_rib(config.noise, config.dataset_seed).write(rib);
    std::ofstream rels(dir / "relationships.txt");
    exp->relationships().write(rels);
    std::ofstream orgs(dir / "as2org.txt");
    exp->orgs().write(orgs);
    std::ofstream ixps(dir / "ixps.txt");
    exp->ixps().write(ixps);
  }

  for (const std::uint32_t seed : {3u, 11u, 29u}) {
    std::mt19937 rng(seed);
    const std::size_t base = traces.size() / 4 +
                             rng() % static_cast<std::uint32_t>(
                                         traces.size() / 4);
    {
      std::ofstream out(dir / "base.txt");
      trace::write_corpus(out, trace::TraceCorpus(std::vector<trace::Trace>(
                                   traces.begin(),
                                   traces.begin() +
                                       static_cast<std::ptrdiff_t>(base))));
    }
    ingest::IngestSetup setup;
    setup.traces_path = (dir / "base.txt").string();
    setup.rib_path = (dir / "rib.txt").string();
    setup.relationships_path = (dir / "relationships.txt").string();
    setup.as2org_path = (dir / "as2org.txt").string();
    setup.ixps_path = (dir / "ixps.txt").string();
    setup.options.threads = 2;
    ingest::IngestPipeline pipeline(setup);
    const core::RunInputs& inputs = pipeline.inputs();

    int folds = 0;
    for (std::size_t at = base; at < traces.size(); ++folds) {
      const std::size_t size =
          1 + rng() % static_cast<std::uint32_t>(traces.size() / 3);
      const std::size_t end = std::min(traces.size(), at + size);
      pipeline.fold(trace::TraceCorpus(std::vector<trace::Trace>(
          traces.begin() + static_cast<std::ptrdiff_t>(at),
          traces.begin() + static_cast<std::ptrdiff_t>(end))));
      at = end;

      const std::string label =
          "split seed=" + std::to_string(seed) + " fold " +
          std::to_string(folds);
      const reference::Output expected = expect_engine_matches_reference(
          inputs.corpus.graph, inputs.ip2as, inputs.orgs, inputs.rels,
          setup.options, label);
      expect_same(pipeline.run(), expected, label + " resident");
      EXPECT_FALSE(expected.inferences.empty()) << label;
    }
    EXPECT_GE(folds, 2) << "split seed " << seed;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mapit
