// Allocation tripwires for the cold path. Wall time on a shared host is
// noise; heap allocation counts repeat exactly, so they pin the cost model:
// parsing and sanitizing allocate per trace (its exact-size hop vector) and
// nothing per hop, and the interface graph allocates per record (its two
// neighbour lists) and nothing per adjacency occurrence.
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

#include "eval/experiment.h"
#include "graph/interface_graph.h"
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

const std::string& corpus_text() {
  static const std::string text = [] {
    const auto experiment =
        eval::Experiment::build(eval::ExperimentConfig::small());
    std::ostringstream out;
    trace::write_corpus(out, experiment->raw_corpus());
    return out.str();
  }();
  return text;
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
  const trace::TraceCorpus base(std::vector<trace::Trace>(
      traces.begin(), traces.begin() + static_cast<std::ptrdiff_t>(half)));

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
    const trace::TraceCorpus delta(std::vector<trace::Trace>(
        traces.begin() + static_cast<std::ptrdiff_t>(at),
        traces.begin() +
            static_cast<std::ptrdiff_t>(std::min(at + 500, traces.size()))));
    const std::uint64_t fold = allocations_of(
        [&] { graph->fold(delta, sanitized.addresses, 1); });
    EXPECT_LE(fold, graph->size() + 100) << "fold at trace " << at;
  }
}

}  // namespace
}  // namespace mapit
