// Dense incremental engine equivalence: the engine's dirty-set incremental
// recount must be observationally indistinguishable from full per-pass
// sweeps. A half is only skipped when none of its neighbours' frozen
// mappings changed, in which case its majority count — a pure function of
// the frozen view and its own base mapping — is unchanged, so skipping
// cannot alter any decision. This test pins that argument empirically
// against the reference implementation (reference/naive_mapit.h), which
// recounts every half on every pass: byte-identical serialized inference
// output and equal final mappings across both experiment scales, the f
// operating points evaluated in the paper (§5.3), and both remove rules.
// ResidentEngineTest pins one Engine reused across graph folds against
// fresh runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/result_io.h"
#include "eval/experiment.h"
#include "graph/interface_graph.h"
#include "reference/naive_mapit.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"

namespace mapit {
namespace {

std::string serialize(const std::vector<core::Inference>& inferences,
                      const std::vector<core::Inference>& uncertain) {
  std::ostringstream out;
  core::write_inferences(out, inferences);
  core::write_inferences(out, uncertain);
  return out.str();
}

std::string serialize(const core::Result& result) {
  return serialize(result.inferences, result.uncertain);
}

/// Parameter: true = standard scale, false = small scale.
class EngineEquivalenceTest : public ::testing::TestWithParam<bool> {
 protected:
  static const eval::Experiment& experiment(bool standard_scale) {
    static const auto standard =
        eval::Experiment::build(eval::ExperimentConfig::standard());
    static const auto small =
        eval::Experiment::build(eval::ExperimentConfig::small());
    return standard_scale ? *standard : *small;
  }
};

TEST_P(EngineEquivalenceTest, IncrementalMatchesFullSweep) {
  const eval::Experiment& exp = experiment(GetParam());
  for (double f : {0.5, 0.75, 1.0}) {
    for (core::RemoveRule rule :
         {core::RemoveRule::kMajority, core::RemoveRule::kAddRule}) {
      core::Options options;
      options.f = f;
      options.remove_rule = rule;

      const core::Result incremental = exp.run_mapit(options);
      const reference::Output full = reference::naive_mapit(
          exp.graph(), exp.ip2as(), exp.orgs(), exp.relationships(), options);

      const std::string label =
          "f=" + std::to_string(f) +
          " rule=" + std::to_string(static_cast<int>(rule));
      EXPECT_FALSE(full.inferences.empty()) << label;
      EXPECT_EQ(serialize(incremental),
                serialize(full.inferences, full.uncertain))
          << label;
      EXPECT_EQ(incremental.final_mappings, full.final_mappings) << label;
    }
  }
}

// Parallel sweeps must be invisible: the engine evaluates full-sweep
// decisions against the frozen previous-pass view (paper §4.4.5), so
// workers counting disjoint HalfId ranges and committing proposals in
// ascending-id order reproduce the sequential mutation sequence exactly.
// This pins the claim: byte-identical output for threads ∈ {1, 2, 8},
// both remove rules, at the paper's default operating point.
TEST_P(EngineEquivalenceTest, ThreadCountInvariance) {
  const eval::Experiment& exp = experiment(GetParam());
  for (core::RemoveRule rule :
       {core::RemoveRule::kMajority, core::RemoveRule::kAddRule}) {
    core::Options sequential;
    sequential.remove_rule = rule;
    sequential.threads = 1;
    const core::Result reference = exp.run_mapit(sequential);
    const std::string expected = serialize(reference);

    for (unsigned threads : {2u, 8u}) {
      core::Options parallel_options = sequential;
      parallel_options.threads = threads;
      const core::Result parallel_result = exp.run_mapit(parallel_options);

      const std::string label =
          "threads=" + std::to_string(threads) +
          " rule=" + std::to_string(static_cast<int>(rule));
      EXPECT_EQ(expected, serialize(parallel_result)) << label;
      EXPECT_EQ(reference.stats, parallel_result.stats) << label;
      EXPECT_EQ(reference.final_mappings, parallel_result.final_mappings)
          << label;
    }
  }
}

// Same invariance for the ingestion pipeline: chunked parallel parsing,
// sanitization, and dense-layout graph construction must reproduce the
// sequential result element for element.
TEST_P(EngineEquivalenceTest, ParallelIngestionMatchesSequential) {
  const eval::Experiment& exp = experiment(GetParam());
  std::ostringstream serialized;
  trace::write_corpus(serialized, exp.raw_corpus());
  const std::string text = serialized.str();

  std::istringstream seq_in(text);
  const trace::TraceCorpus seq_corpus = trace::read_corpus(seq_in, 1);
  const auto seq_sanitized = trace::sanitize(seq_corpus, 1);
  const auto all_addresses = seq_corpus.distinct_addresses();
  const graph::InterfaceGraph seq_graph(seq_sanitized.clean, all_addresses, 1);

  for (unsigned threads : {2u, 8u}) {
    const std::string label = "threads=" + std::to_string(threads);

    std::istringstream par_in(text);
    const trace::TraceCorpus par_corpus = trace::read_corpus(par_in, threads);
    std::ostringstream seq_out, par_out;
    trace::write_corpus(seq_out, seq_corpus);
    trace::write_corpus(par_out, par_corpus);
    ASSERT_EQ(seq_out.str(), par_out.str()) << label;

    const auto par_sanitized = trace::sanitize(par_corpus, threads);
    std::ostringstream seq_clean, par_clean;
    trace::write_corpus(seq_clean, seq_sanitized.clean);
    trace::write_corpus(par_clean, par_sanitized.clean);
    EXPECT_EQ(seq_clean.str(), par_clean.str()) << label;
    EXPECT_EQ(seq_sanitized.stats.discarded_traces,
              par_sanitized.stats.discarded_traces) << label;
    EXPECT_EQ(seq_sanitized.stats.removed_ttl0_hops,
              par_sanitized.stats.removed_ttl0_hops) << label;
    EXPECT_EQ(seq_sanitized.stats.retained_addresses,
              par_sanitized.stats.retained_addresses) << label;

    const graph::InterfaceGraph par_graph(par_sanitized.clean, all_addresses,
                                          threads);
    ASSERT_EQ(seq_graph.half_count(), par_graph.half_count()) << label;
    for (graph::HalfId id = 0;
         id < static_cast<graph::HalfId>(seq_graph.half_count()); ++id) {
      ASSERT_EQ(seq_graph.address_at(id), par_graph.address_at(id)) << label;
      ASSERT_EQ(seq_graph.other_side_id(id), par_graph.other_side_id(id))
          << label;
      const auto seq_fwd = seq_graph.neighbor_ids(id);
      const auto par_fwd = par_graph.neighbor_ids(id);
      ASSERT_TRUE(std::equal(seq_fwd.begin(), seq_fwd.end(), par_fwd.begin(),
                             par_fwd.end()))
          << label << " neighbor span mismatch at id " << id;
      const auto seq_rev = seq_graph.reverse_neighbor_ids(id);
      const auto par_rev = par_graph.reverse_neighbor_ids(id);
      ASSERT_TRUE(std::equal(seq_rev.begin(), seq_rev.end(), par_rev.begin(),
                             par_rev.end()))
          << label << " reverse span mismatch at id " << id;
    }
  }
}

// A resident engine — one Engine reused over a graph folded between runs,
// as IngestPipeline keeps one per session — must equal a fresh run after
// every fold: each run sizes its slabs from the grown graph, its cached
// base mappings are keyed by address (a fold shifts HalfIds), and its
// per-run state starts empty.
class ResidentEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exp_ = eval::Experiment::build(eval::ExperimentConfig::small());
    const std::vector<trace::Trace>& raw = exp_->raw_corpus().traces();
    base_end_ = raw.size() / 4;
    const trace::SanitizeResult base = trace::sanitize(slice(0, base_end_), 1);
    population_ = base.addresses;
    graph_ = std::make_unique<graph::InterfaceGraph>(base.clean, population_,
                                                     1);
  }

  [[nodiscard]] trace::TraceCorpus slice(std::size_t begin,
                                         std::size_t end) const {
    const std::vector<trace::Trace>& raw = exp_->raw_corpus().traces();
    return trace::TraceCorpus(std::vector<trace::Trace>(
        raw.begin() + static_cast<std::ptrdiff_t>(begin),
        raw.begin() + static_cast<std::ptrdiff_t>(end)));
  }

  /// Folds raw traces [begin, end) into the graph as IngestPipeline::fold
  /// does: the raw addresses join the §4.2 population, the sanitized
  /// traces the graph.
  void fold(std::size_t begin, std::size_t end) {
    const trace::SanitizeResult delta = trace::sanitize(slice(begin, end), 1);
    const std::size_t old_size = population_.size();
    population_.insert(population_.end(), delta.addresses.begin(),
                       delta.addresses.end());
    std::inplace_merge(population_.begin(),
                       population_.begin() +
                           static_cast<std::ptrdiff_t>(old_size),
                       population_.end());
    population_.erase(std::unique(population_.begin(), population_.end()),
                      population_.end());
    graph_->fold(delta.clean, population_, 1);
  }

  [[nodiscard]] std::unique_ptr<core::Engine> engine(
      const core::Options& options) const {
    return std::make_unique<core::Engine>(*graph_, exp_->ip2as(), exp_->orgs(),
                                          exp_->relationships(), options);
  }

  [[nodiscard]] core::Result fresh(const core::Options& options) const {
    return core::run_mapit(*graph_, exp_->ip2as(), exp_->orgs(),
                           exp_->relationships(), options);
  }

  static void expect_same(const core::Result& resident,
                          const core::Result& fresh,
                          const std::string& label) {
    EXPECT_FALSE(fresh.inferences.empty()) << label;
    EXPECT_EQ(serialize(resident), serialize(fresh)) << label;
    EXPECT_EQ(resident.stats, fresh.stats) << label;
    EXPECT_EQ(resident.final_mappings, fresh.final_mappings) << label;
  }

  std::unique_ptr<eval::Experiment> exp_;
  std::size_t base_end_ = 0;
  std::vector<net::Ipv4Address> population_;
  std::unique_ptr<graph::InterfaceGraph> graph_;
};

TEST_F(ResidentEngineTest, ReusedEngineMatchesFreshRunAfterEveryFold) {
  std::vector<core::Options> options(3);
  std::vector<std::unique_ptr<core::Engine>> engines;
  for (std::size_t i = 0; i < options.size(); ++i) {
    options[i].threads = std::vector<unsigned>{1, 2, 8}[i];
    engines.push_back(engine(options[i]));
  }
  const auto compare = [&](const std::string& label) {
    for (std::size_t i = 0; i < engines.size(); ++i) {
      expect_same(engines[i]->run(), fresh(options[i]),
                  label + " threads=" + std::to_string(options[i].threads));
    }
  };
  compare("base");

  // The folds must exercise what shifts HalfIds and base mappings: a
  // phantom (an other side seen in no adjacency) turning into a record,
  // and a new witness changing an existing record's other side.
  bool phantom_became_record = false;
  bool other_side_changed = false;
  const std::size_t total = exp_->raw_corpus().size();
  const std::size_t batch = (total - base_end_) / 6 + 1;
  for (std::size_t at = base_end_; at < total; at += batch) {
    std::vector<net::Ipv4Address> phantoms;
    for (std::size_t id = graph_->record_half_count();
         id < graph_->half_count(); id += 2) {
      phantoms.push_back(graph_->address_at(static_cast<graph::HalfId>(id)));
    }
    std::vector<std::pair<net::Ipv4Address, net::Ipv4Address>> other_sides;
    for (const graph::InterfaceRecord& record : graph_->interfaces()) {
      other_sides.emplace_back(record.address, record.other_side.address);
    }

    fold(at, std::min(total, at + batch));

    for (net::Ipv4Address phantom : phantoms) {
      phantom_became_record |= graph_->find(phantom) != nullptr;
    }
    for (const auto& [address, other] : other_sides) {
      other_side_changed |= graph_->find(address)->other_side.address != other;
    }
    compare("fold at trace " + std::to_string(at));
  }
  EXPECT_TRUE(phantom_became_record);
  EXPECT_TRUE(other_side_changed);
}

// Checkpoint resume through a resident engine: stopped at each of the
// first boundaries of a run over a folded graph, saved, and resumed in the
// same engine, the run equals a fresh uninterrupted one.
TEST_F(ResidentEngineTest, CheckpointResumeThroughReusedEngine) {
  core::Options options;
  options.threads = 2;
  const std::unique_ptr<core::Engine> resident = engine(options);
  (void)resident->run();  // sized and cached for the base graph
  fold(base_end_, exp_->raw_corpus().size());
  const core::Result reference = fresh(options);

  for (int stop_at = 1; stop_at <= 3; ++stop_at) {
    std::string blob;
    int boundaries = 0;
    core::RunControl stop;
    stop.on_boundary = [&](core::RunBoundary, int) {
      if (++boundaries < stop_at) return true;
      blob = resident->save_state();
      return false;
    };
    const core::RunOutcome stopped = resident->run_controlled(stop);
    ASSERT_FALSE(stopped.completed()) << "stop " << stop_at;

    core::RunControl resume;
    resume.resume_state = &blob;
    resume.resume_boundary = stopped.stopped_at;
    const core::RunOutcome resumed = resident->run_controlled(resume);
    ASSERT_TRUE(resumed.completed()) << "stop " << stop_at;
    expect_same(*resumed.result, reference, "stop " + std::to_string(stop_at));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scales, EngineEquivalenceTest, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool>& param_info) {
      return param_info.param ? "Standard" : "Small";
    });

}  // namespace
}  // namespace mapit
