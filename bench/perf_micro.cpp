// Micro-benchmarks (google-benchmark) for the performance-critical pieces:
// longest-prefix-match lookups, the cold path's layers (parsing,
// sanitization, distinct addresses, neighbour-set construction) and the
// streaming pass that fuses them, the ingest fold, and the end-to-end
// MAP-IT engine at two corpus scales.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/claims.h"
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
void BM_ReadGraph(benchmark::State& state) {
  const auto& experiment = shared_experiment();
  std::ostringstream out;
  trace::write_corpus(out, experiment.raw_corpus());
  const std::string text = out.str();
  for (auto _ : state) {
    std::istringstream in(text);
    benchmark::DoNotOptimize(graph::read_graph(in).graph.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(experiment.raw_corpus().size()));
}
BENCHMARK(BM_ReadGraph)->Unit(benchmark::kMillisecond);

// One ingest fold, as `mapit ingest` folds each 1,000-trace batch: sanitize
// the delta, merge its addresses into the witness population, fold it into
// the graph (which rebuilds the dense layout). The graph holds the standard
// corpus but its last 8,000 traces; each iteration folds the next of those
// eight deltas into a fresh copy of it (the copy is not timed).
void BM_GraphFold(benchmark::State& state) {
  constexpr std::size_t kDeltaTraces = 1000;
  constexpr std::size_t kDeltas = 8;
  const std::vector<trace::Trace>& raw =
      shared_experiment().raw_corpus().traces();
  const auto corpus_of = [&](std::size_t begin, std::size_t end) {
    return trace::TraceCorpus(std::vector<trace::Trace>(
        raw.begin() + static_cast<std::ptrdiff_t>(begin),
        raw.begin() + static_cast<std::ptrdiff_t>(end)));
  };
  const std::size_t base_traces = raw.size() - kDeltaTraces * kDeltas;
  const trace::SanitizeResult base = trace::sanitize(corpus_of(0, base_traces));
  const graph::InterfaceGraph base_graph(base.clean, base.addresses);
  std::vector<trace::TraceCorpus> deltas;
  for (std::size_t d = 0; d < kDeltas; ++d) {
    const std::size_t begin = base_traces + d * kDeltaTraces;
    deltas.push_back(corpus_of(begin, begin + kDeltaTraces));
  }

  std::size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    graph::InterfaceGraph graph = base_graph;
    std::vector<net::Ipv4Address> population = base.addresses;
    const trace::TraceCorpus& delta = deltas[next++ % kDeltas];
    state.ResumeTiming();
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
    benchmark::DoNotOptimize(graph.half_count());
  }
}
BENCHMARK(BM_GraphFold)->Unit(benchmark::kMillisecond);

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

}  // namespace

BENCHMARK_MAIN();
