// Micro-benchmarks (google-benchmark) for the performance-critical pieces:
// longest-prefix-match lookups, the cold path's layers (parsing,
// sanitization, distinct addresses, neighbour-set construction) and the
// streaming pass that fuses them, the ingest fold, the end-to-end MAP-IT
// engine at two corpus scales, the resident engine's republish after a
// fold, and one checkpoint write.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/claims.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "eval/experiment.h"
#include "graph/interface_graph.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"

namespace {

using namespace mapit;

const eval::Experiment& shared_experiment() {
  static const auto experiment =
      eval::Experiment::build(eval::ExperimentConfig::standard());
  return *experiment;
}

const eval::Experiment& small_experiment() {
  static const auto experiment =
      eval::Experiment::build(eval::ExperimentConfig::small());
  return *experiment;
}

void BM_PrefixTrieLongestMatch(benchmark::State& state) {
  const auto& experiment = shared_experiment();
  std::mt19937_64 rng(1);
  std::vector<net::Ipv4Address> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(net::Ipv4Address(static_cast<std::uint32_t>(rng())));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        experiment.ip2as().origin(probes[i++ & 1023]));
  }
}
BENCHMARK(BM_PrefixTrieLongestMatch);

// The cold path's four layers, each over the standard corpus: parse,
// sanitize (from a copy, as a caller keeping its corpus pays), distinct
// addresses, graph build.
void BM_ReadCorpus(benchmark::State& state) {
  const auto& experiment = shared_experiment();
  std::ostringstream out;
  trace::write_corpus(out, experiment.raw_corpus());
  const std::string text = out.str();
  for (auto _ : state) {
    std::istringstream in(text);
    benchmark::DoNotOptimize(trace::read_corpus(in));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(experiment.raw_corpus().size()));
}
BENCHMARK(BM_ReadCorpus)->Unit(benchmark::kMillisecond);

void BM_Sanitize(benchmark::State& state) {
  const auto& experiment = shared_experiment();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::sanitize(experiment.raw_corpus()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(experiment.raw_corpus().size()));
}
BENCHMARK(BM_Sanitize)->Unit(benchmark::kMillisecond);

void BM_DistinctAddresses(benchmark::State& state) {
  const auto& experiment = shared_experiment();
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiment.raw_corpus().distinct_addresses());
  }
}
BENCHMARK(BM_DistinctAddresses)->Unit(benchmark::kMillisecond);

void BM_InterfaceGraphBuild(benchmark::State& state) {
  const auto& experiment = shared_experiment();
  const auto addresses = experiment.raw_corpus().distinct_addresses();
  for (auto _ : state) {
    graph::InterfaceGraph graph(experiment.corpus(), addresses);
    benchmark::DoNotOptimize(graph.size());
  }
}
BENCHMARK(BM_InterfaceGraphBuild)->Unit(benchmark::kMillisecond);

// The one streaming pass the CLI and the ingest base load run, from the
// same text as BM_ReadCorpus to the graph: the fused counterpart of
// BM_ReadCorpus + BM_Sanitize + BM_InterfaceGraphBuild.
void read_graph_of(benchmark::State& state, const std::string& text) {
  for (auto _ : state) {
    std::istringstream in(text);
    benchmark::DoNotOptimize(graph::read_graph(in).graph.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(shared_experiment().raw_corpus().size()));
}

std::string standard_text() {
  std::ostringstream out;
  trace::write_corpus(out, shared_experiment().raw_corpus());
  return out.str();
}

void BM_ReadGraph(benchmark::State& state) {
  read_graph_of(state, standard_text());
}
BENCHMARK(BM_ReadGraph)->Unit(benchmark::kMillisecond);

// The same lines in a fixed random order: consecutive lines rarely share
// their first hops, so the scanner's reuse of the previous line seldom
// fires. This guards the cost of an input in no useful order.
void BM_ReadGraphShuffled(benchmark::State& state) {
  std::istringstream in(standard_text());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::mt19937_64 rng(2016);
  std::shuffle(lines.begin(), lines.end(), rng);
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  read_graph_of(state, text);
}
BENCHMARK(BM_ReadGraphShuffled)->Unit(benchmark::kMillisecond);

// The standard corpus split as `mapit ingest` sees it: a base graph of all
// but its last 8,000 traces, and those as eight 1,000-trace deltas.
struct FoldCorpus {
  static constexpr std::size_t kDeltaTraces = 1000;
  static constexpr std::size_t kDeltas = 8;

  trace::SanitizeResult base;
  graph::InterfaceGraph base_graph;
  std::vector<trace::TraceCorpus> deltas;

  static trace::TraceCorpus slice(std::size_t begin, std::size_t end) {
    const std::vector<trace::Trace>& raw =
        shared_experiment().raw_corpus().traces();
    return trace::TraceCorpus(std::vector<trace::Trace>(
        raw.begin() + static_cast<std::ptrdiff_t>(begin),
        raw.begin() + static_cast<std::ptrdiff_t>(end)));
  }

  FoldCorpus()
      : base(trace::sanitize(slice(0, base_traces()))),
        base_graph(base.clean, base.addresses) {
    for (std::size_t d = 0; d < kDeltas; ++d) {
      const std::size_t begin = base_traces() + d * kDeltaTraces;
      deltas.push_back(slice(begin, begin + kDeltaTraces));
    }
  }

  static std::size_t base_traces() {
    return shared_experiment().raw_corpus().traces().size() -
           kDeltaTraces * kDeltas;
  }

  /// What `mapit ingest` does with a delta before publishing: sanitize it,
  /// merge its addresses into the witness population, fold it into the
  /// graph (which rebuilds the dense layout).
  static void fold(graph::InterfaceGraph& graph,
                   std::vector<net::Ipv4Address>& population,
                   const trace::TraceCorpus& delta) {
    const trace::SanitizeResult sanitized = trace::sanitize(delta);
    const std::size_t kept = population.size();
    population.insert(population.end(), sanitized.addresses.begin(),
                      sanitized.addresses.end());
    std::inplace_merge(population.begin(),
                       population.begin() + static_cast<std::ptrdiff_t>(kept),
                       population.end());
    population.erase(std::unique(population.begin(), population.end()),
                     population.end());
    graph.fold(sanitized.clean, population);
  }
};

// One ingest fold. Each iteration folds the next of the eight deltas into
// a fresh copy of the base graph (the copy is not timed).
void BM_GraphFold(benchmark::State& state) {
  const FoldCorpus corpus;
  std::size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    graph::InterfaceGraph graph = corpus.base_graph;
    std::vector<net::Ipv4Address> population = corpus.base.addresses;
    const trace::TraceCorpus& delta =
        corpus.deltas[next++ % FoldCorpus::kDeltas];
    state.ResumeTiming();
    FoldCorpus::fold(graph, population, delta);
    benchmark::DoNotOptimize(graph.half_count());
  }
}
BENCHMARK(BM_GraphFold)->Unit(benchmark::kMillisecond);

// The engine's share of one ingest publish: a resident Engine (threads 1)
// re-run over the graph after each fold of the next delta. The fold is not
// timed; after the eighth delta the graph starts again from the base.
void BM_EngineRepublish(benchmark::State& state) {
  const FoldCorpus corpus;
  const auto& experiment = shared_experiment();
  core::Options options;
  options.threads = 1;
  graph::InterfaceGraph graph = corpus.base_graph;
  std::vector<net::Ipv4Address> population = corpus.base.addresses;
  core::Engine engine(graph, experiment.ip2as(), experiment.orgs(),
                      experiment.relationships(), options);
  benchmark::DoNotOptimize(engine.run());  // warm the base-mapping cache
  std::size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (next % FoldCorpus::kDeltas == 0) {
      graph = corpus.base_graph;
      population = corpus.base.addresses;
    }
    FoldCorpus::fold(graph, population,
                     corpus.deltas[next++ % FoldCorpus::kDeltas]);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.run());
  }
}
BENCHMARK(BM_EngineRepublish)->Unit(benchmark::kMillisecond);

void BM_MapItEngineSmall(benchmark::State& state) {
  const auto& experiment = small_experiment();
  core::Options options;
  options.f = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiment.run_mapit(options));
  }
}
BENCHMARK(BM_MapItEngineSmall)->Unit(benchmark::kMillisecond);

void BM_MapItEngineStandard(benchmark::State& state) {
  const auto& experiment = shared_experiment();
  core::Options options;
  options.f = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiment.run_mapit(options));
  }
}
BENCHMARK(BM_MapItEngineStandard)->Unit(benchmark::kMillisecond);

// Thread-parallel full sweeps (Arg = worker count). Output is byte-identical
// to BM_MapItEngineStandard for every arg; only wall time should move.
void BM_MapItEngineParallel(benchmark::State& state) {
  const auto& experiment = shared_experiment();
  core::Options options;
  options.f = 0.5;
  options.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiment.run_mapit(options));
  }
}
BENCHMARK(BM_MapItEngineParallel)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ClaimsExtraction(benchmark::State& state) {
  const auto& experiment = shared_experiment();
  core::Options options;
  options.f = 0.5;
  const core::Result result = experiment.run_mapit(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::claims_from_result(result));
  }
}
BENCHMARK(BM_ClaimsExtraction);

// What one checkpoint boundary of `mapit run --checkpoint-dir` pays: the
// engine's save_state() and the crash-safe write of the checkpoint file,
// with the standard run paused at its first boundary. DESIGN.md §11 cites
// the time per write and the state size.
void BM_CheckpointWrite(benchmark::State& state) {
  const auto& experiment = shared_experiment();
  core::Options options;
  options.f = 0.5;
  options.threads = 1;
  core::Engine engine(experiment.graph(), experiment.ip2as(),
                      experiment.orgs(), experiment.relationships(), options);
  core::Checkpoint checkpoint;
  checkpoint.meta.config_hash = core::config_hash(options);
  core::RunControl pause;
  pause.on_boundary = [&](core::RunBoundary boundary, int iterations) {
    checkpoint.boundary = boundary;
    checkpoint.iterations_done = iterations;
    return false;
  };
  if (engine.run_controlled(pause).completed()) {
    state.SkipWithError("the run reached no boundary");
    return;
  }
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mapit_bench_checkpoint." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = core::checkpoint_path(dir.string());
  for (auto _ : state) {
    checkpoint.engine_state = engine.save_state();
    core::write_checkpoint(path, checkpoint);
  }
  state.counters["state_bytes"] =
      static_cast<double>(checkpoint.engine_state.size());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointWrite)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
