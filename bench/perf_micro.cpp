// Micro-benchmarks (google-benchmark) for the performance-critical pieces:
// longest-prefix-match lookups, the cold path's layers (parsing,
// sanitization, distinct addresses, neighbour-set construction), and the
// end-to-end MAP-IT engine at two corpus scales.
#include <benchmark/benchmark.h>

#include <random>
#include <sstream>
#include <string>

#include "baselines/claims.h"
#include "eval/experiment.h"
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
