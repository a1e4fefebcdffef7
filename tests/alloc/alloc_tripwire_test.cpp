// Allocation tripwires for the cold path and the republish path. Wall time
// on a shared host is noise; heap allocation counts repeat exactly, so they
// pin the cost model: parsing and sanitizing allocate per trace (its
// exact-size hop vector) and nothing per hop; the interface graph allocates
// per record (its two neighbour lists) and nothing per adjacency
// occurrence; the engine and the snapshot build allocate per output (result
// entries, final mappings, links) and nothing per half or adjacency.
//
// This binary replaces the global operator new with a counting one, so it
// is a separate test executable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "eval/experiment.h"
#include "graph/interface_graph.h"
#include "store/writer.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mapit {
namespace {

/// Allocations made by `fn`.
template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

const eval::Experiment& experiment() {
  static const auto built =
      eval::Experiment::build(eval::ExperimentConfig::small());
  return *built;
}

const std::string& corpus_text() {
  static const std::string text = [] {
    std::ostringstream out;
    trace::write_corpus(out, experiment().raw_corpus());
    return out.str();
  }();
  return text;
}

/// Traces [begin, end) of `traces` as a corpus.
trace::TraceCorpus slice(const std::vector<trace::Trace>& traces,
                         std::size_t begin, std::size_t end) {
  return trace::TraceCorpus(std::vector<trace::Trace>(
      traces.begin() + static_cast<std::ptrdiff_t>(begin),
      traces.begin() + static_cast<std::ptrdiff_t>(end)));
}

/// Adjacency occurrences a graph build walks past (both hops responsive).
std::uint64_t adjacencies(const trace::TraceCorpus& corpus) {
  std::uint64_t count = 0;
  for (const trace::Trace& trace : corpus.traces()) {
    for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
      if (trace.hops[i].address && trace.hops[i + 1].address) ++count;
    }
  }
  return count;
}

TEST(AllocTripwire, ReadCorpusAndSanitizeAllocatePerTraceNotPerHop) {
  std::istringstream in(corpus_text());
  trace::TraceCorpus corpus;
  const std::uint64_t read =
      allocations_of([&] { corpus = trace::read_corpus(in, 1); });
  ASSERT_GT(corpus.size(), 1000u);
  // One exact-size hop vector per trace, plus the buffer and amortized
  // growth of the trace vector.
  EXPECT_LE(read, corpus.size() + 64) << corpus.size() << " traces";

  // Copied in (the caller keeps its corpus): the copy is the only
  // per-trace allocation.
  trace::SanitizeResult copied;
  const std::uint64_t sanitize_copy =
      allocations_of([&] { copied = trace::sanitize(corpus, 1); });
  EXPECT_LE(sanitize_copy, corpus.size() + 64) << corpus.size() << " traces";

  // Moved in, the corpus is cleaned in place: no per-trace allocation.
  trace::SanitizeResult in_place;
  const std::uint64_t sanitize_move = allocations_of(
      [&] { in_place = trace::sanitize(std::move(corpus), 1); });
  EXPECT_LE(sanitize_move, 64u);
  EXPECT_EQ(in_place.clean.traces(), copied.clean.traces());
}

TEST(AllocTripwire, GraphBuildAndFoldAllocatePerRecordNotPerAdjacency) {
  std::istringstream in(corpus_text());
  const trace::SanitizeResult sanitized =
      trace::sanitize(trace::read_corpus(in, 1), 1);
  const std::vector<trace::Trace>& traces = sanitized.clean.traces();
  const std::size_t half = traces.size() / 2;
  const trace::TraceCorpus base = slice(traces, 0, half);

  std::unique_ptr<graph::InterfaceGraph> graph;
  const std::uint64_t build = allocations_of([&] {
    graph = std::make_unique<graph::InterfaceGraph>(base, sanitized.addresses,
                                                    1);
  });
  ASSERT_GT(graph->size(), 100u);
  // At most two neighbour lists per record, plus a constant.
  EXPECT_LE(build, 2 * graph->size() + 100) << graph->size() << " records";
  EXPECT_LT(build, adjacencies(base) / 4) << adjacencies(base)
                                          << " adjacencies";

  // Folding the rest in 500-trace batches: a fold grows the neighbour
  // lists it extends (amortized), never allocates per adjacency.
  for (std::size_t at = half; at < traces.size(); at += 500) {
    const trace::TraceCorpus delta =
        slice(traces, at, std::min(at + 500, traces.size()));
    const std::uint64_t fold = allocations_of(
        [&] { graph->fold(delta, sanitized.addresses, 1); });
    EXPECT_LE(fold, graph->size() + 100) << "fold at trace " << at;
  }
}

// What `mapit ingest` runs on every publish: the engine over the folded
// graph, then the snapshot build and its serialization.
TEST(AllocTripwire, EngineAndSnapshotAllocatePerOutputNotPerHalf) {
  std::istringstream in(corpus_text());
  const trace::SanitizeResult sanitized =
      trace::sanitize(trace::read_corpus(in, 1), 1);
  const std::vector<trace::Trace>& traces = sanitized.clean.traces();
  const std::size_t half = traces.size() / 2;
  graph::InterfaceGraph graph(slice(traces, 0, half), sanitized.addresses, 1);
  graph.fold(slice(traces, half, traces.size()), sanitized.addresses, 1);
  const std::size_t halves = graph.half_count();
  ASSERT_GT(halves, 1000u);

  core::Options options;
  options.threads = 1;
  core::Result result;
  const std::uint64_t engine = allocations_of([&] {
    result = core::run_mapit(graph, experiment().ip2as(), experiment().orgs(),
                             experiment().relationships(), options);
  });
  ASSERT_GT(result.final_mappings.size(), 100u);
  // One hash node per final mapping; the result vectors, the per-half
  // slabs and the work lists are each one buffer grown geometrically, and
  // each iteration keeps one convergence signature: a constant.
  EXPECT_LE(engine, result.final_mappings.size() + 200)
      << result.final_mappings.size() << " final mappings";
  EXPECT_LT(engine, halves / 2) << halves << " halves";

  store::SnapshotData data;
  std::string bytes;
  const std::uint64_t publish = allocations_of([&] {
    data = store::make_snapshot_data(result, graph, experiment().ip2as());
    bytes = store::serialize_snapshot(data);
  });
  ASSERT_GT(data.links.size(), 100u);
  // One map node per aggregated link; every section and the image are
  // buffers grown geometrically.
  EXPECT_LE(publish, data.links.size() + 100) << data.links.size()
                                              << " links";
  EXPECT_LT(publish, halves / 2) << halves << " halves";
}

}  // namespace
}  // namespace mapit
