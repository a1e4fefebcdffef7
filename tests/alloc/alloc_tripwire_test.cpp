// Allocation and memory tripwires for the cold path, the republish path
// and the request path. Wall time on a shared host is noise; heap
// allocation counts and heap high-water marks repeat exactly, so they pin
// the cost model: parsing and sanitizing a corpus allocate per trace (its
// exact-size hop vector) and nothing per hop; the streaming load holds one
// block of input plus the distinct addresses and pairs, whatever the
// file's length; the interface graph allocates per record (its two
// neighbour lists) and nothing per adjacency occurrence; an ingest fold
// cleans a moved-in batch where it lies, copying none of its traces; the
// engine and the snapshot build allocate a constant, nothing per output,
// half or adjacency; a served request allocates nothing once the
// connection's buffers have grown.
//
// This binary replaces the global operator new with a counting one, so it
// is a separate test executable.
#include <gtest/gtest.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "eval/experiment.h"
#include "graph/interface_graph.h"
#include "ingest/pipeline.h"
#include "net/load_report.h"
#include "query/protocol.h"
#include "query/query_engine.h"
#include "query/server.h"
#include "store/reader.h"
#include "store/writer.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};  // malloc_usable_size of each
std::atomic<std::int64_t> g_peak_bytes{0};  // high-water mark of g_live_bytes

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live_bytes.fetch_add(size) + size;
  std::int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void release(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)));
  std::free(p);
}

void* aligned(std::size_t size, std::align_val_t align) {
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + alignment -
                               1) / alignment * alignment;
  return counted(std::aligned_alloc(alignment, rounded));
}

}  // namespace

void* operator new(std::size_t size) {
  return counted(std::malloc(size == 0 ? 1 : size));
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return aligned(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
// The nothrow forms too (std::get_temporary_buffer, which inplace_merge
// uses, allocates with them): a sanitizer runtime otherwise serves them
// with its own allocator while the deletes above free with std::free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  return p == nullptr ? nullptr : counted(p);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return aligned(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}

namespace mapit {
namespace {

/// Allocations made by `fn`.
template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

/// How far `fn` raises the heap's live bytes above where they started, at
/// its highest.
template <typename Fn>
std::int64_t peak_bytes_of(Fn&& fn) {
  const std::int64_t base = g_live_bytes.load();
  g_peak_bytes.store(base);
  fn();
  return g_peak_bytes.load() - base;
}

// Allocation budgets of one engine run, one snapshot build and one
// resident publish (engine run plus snapshot build): constants, not
// functions of the graph or of the outputs. The small corpus measures
// about 100, 25 and 85.
constexpr std::uint64_t kEngineAllocations = 150;
constexpr std::uint64_t kSnapshotAllocations = 40;
constexpr std::uint64_t kResidentPublishAllocations = 150;

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

/// `copies` copies of `text`, back to back.
std::string repeated(const std::string& text, std::size_t copies) {
  std::string out;
  for (std::size_t i = 0; i < copies; ++i) out += text;
  return out;
}

/// Blocks the scanner cuts `text` into.
std::size_t blocks_of(const std::string& text) {
  std::istringstream in(text);
  LoadReport report;  // lenient: garbage texts scan too
  std::size_t blocks = 0;
  trace::scan_traces(
      in, 1, &report, [](unsigned, trace::Trace&, std::size_t) {},
      [&] { ++blocks; });
  return blocks;
}

struct LoadCost {
  std::uint64_t allocations = 0;
  std::int64_t peak_bytes = 0;
  std::size_t records = 0;
};

LoadCost streaming_load(const std::string& text, unsigned threads,
                        LoadReport* report = nullptr) {
  std::istringstream in(text);
  std::optional<graph::LoadedGraph> loaded;
  LoadCost cost;
  cost.allocations = allocations_of([&] {
    cost.peak_bytes = peak_bytes_of(
        [&] { loaded.emplace(graph::read_graph(in, threads, report)); });
  });
  cost.records = loaded->graph.size();
  return cost;
}

TEST(AllocTripwire, StreamingLoadHoldsOneBlockNotTheCorpus) {
  const std::string once = corpus_text();
  const std::string eight = repeated(once, 8);
  const std::size_t extra_blocks = blocks_of(eight) - blocks_of(once);
  ASSERT_GE(extra_blocks, 3u);
  for (const unsigned threads : {1u, 2u}) {
    const LoadCost small = streaming_load(once, threads);
    const LoadCost large = streaming_load(eight, threads);
    ASSERT_GT(small.records, 500u);
    // Repeated traces change no set, so the graph is the same.
    EXPECT_EQ(large.records, small.records);
    // One block of input, the flat sets and the graph, however long the
    // file: eight times the text moves the peak by less than 64 KiB.
    EXPECT_LE(small.peak_bytes, 3 * 512 * 1024) << threads << " threads";
    EXPECT_LE(large.peak_bytes, 3 * 512 * 1024) << threads << " threads";
    EXPECT_LE(std::max(small.peak_bytes, large.peak_bytes) -
                  std::min(small.peak_bytes, large.peak_bytes),
              64 * 1024)
        << threads << " threads: " << small.peak_bytes << " vs "
        << large.peak_bytes;
    // Allocations per record (the graph), not per trace, and at most two
    // more per extra block.
    EXPECT_LE(small.allocations, 2 * small.records + 200)
        << threads << " threads";
    EXPECT_LE(large.allocations, 2 * large.records + 200)
        << threads << " threads";
    EXPECT_LE(large.allocations, small.allocations + 2 * extra_blocks)
        << threads << " threads: " << small.allocations << " vs "
        << large.allocations;
  }
}

TEST(AllocTripwire, LenientGarbageHoldsNoMoreThanABlocksFailures) {
  std::string garbage;
  for (std::size_t i = 0; garbage.size() < 2 * trace::kScanBlockBytes; ++i) {
    garbage += "garbage line " + std::to_string(i) + "\n";
  }
  for (const unsigned threads : {1u, 2u}) {
    LoadReport small_report;
    const LoadCost small = streaming_load(garbage, threads, &small_report);
    LoadReport large_report;
    const LoadCost large =
        streaming_load(repeated(garbage, 4), threads, &large_report);
    EXPECT_EQ(large_report.skipped(), 4 * small_report.skipped());
    EXPECT_EQ(small.records, 0u);
    // Within a page: the workers' scratch strings may differ by a few bytes.
    EXPECT_LE(large.peak_bytes, small.peak_bytes + 4096)
        << threads << " threads: " << small.peak_bytes << " vs "
        << large.peak_bytes;
    EXPECT_LE(small.peak_bytes, 3 * 512 * 1024) << threads << " threads";
  }
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

// What `mapit ingest` runs on each batch before publishing it: the batch
// moves into the fold, which sanitizes it in place. The fold then
// allocates for the graph's growth and a constant, not once per trace (a
// copy of the batch would cost one hop vector per trace).
TEST(AllocTripwire, IngestFoldCleansAMovedBatchInPlace) {
  namespace fs = std::filesystem;
  constexpr std::size_t kBatch = 1000;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("mapit_alloc_fold_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const eval::ExperimentConfig& config = experiment().config();
  const std::vector<trace::Trace>& traces = experiment().raw_corpus().traces();
  const std::size_t base = traces.size() / 2;
  {
    std::ofstream corpus(dir / "base.txt");
    trace::write_corpus(corpus, slice(traces, 0, base));
    std::ofstream rib(dir / "rib.txt");
    experiment().internet().export_rib(config.noise, config.dataset_seed)
        .write(rib);
  }
  ingest::IngestSetup setup;
  setup.traces_path = (dir / "base.txt").string();
  setup.rib_path = (dir / "rib.txt").string();
  setup.options.threads = 1;
  ingest::IngestPipeline pipeline(setup);

  int folds = 0;
  for (std::size_t at = base; at + kBatch <= traces.size(); at += kBatch) {
    trace::TraceCorpus batch = slice(traces, at, at + kBatch);
    const std::uint64_t fold =
        allocations_of([&] { pipeline.fold(std::move(batch)); });
    EXPECT_LT(fold, kBatch / 2) << "batch at trace " << at;
    ++folds;
  }
  EXPECT_GE(folds, 2);
  fs::remove_all(dir);
}

// What a cold `mapit snapshot` runs after the load: the engine over the
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
  // The per-half slabs, the base-mapping cache, the work lists and the
  // result vectors are each one buffer grown geometrically, and each
  // iteration keeps one convergence signature: a constant.
  EXPECT_LE(engine, kEngineAllocations)
      << result.final_mappings.size() << " final mappings, " << halves
      << " halves";

  store::SnapshotData data;
  std::string bytes;
  const std::uint64_t publish = allocations_of([&] {
    data = store::make_snapshot_data(result, graph, experiment().ip2as());
    bytes = store::serialize_snapshot(data);
  });
  ASSERT_GT(data.links.size(), 100u);
  // The links are folded from one sorted vector; every section and the
  // image are buffers grown geometrically.
  EXPECT_LE(publish, kSnapshotAllocations) << data.links.size() << " links";
}

// What `mapit ingest` runs on every publish: the pipeline's resident
// engine over the graph a fold just grew, then the snapshot build and its
// serialization. Once warm, a publish allocates a constant however far the
// graph has grown: the slabs and the base-mapping cache regrow only when
// the graph outgrows them, and every other buffer is per result.
TEST(AllocTripwire, ResidentPublishAllocatesAConstant) {
  std::istringstream in(corpus_text());
  const trace::SanitizeResult sanitized =
      trace::sanitize(trace::read_corpus(in, 1), 1);
  const std::vector<trace::Trace>& traces = sanitized.clean.traces();
  std::size_t at = traces.size() / 10;
  graph::InterfaceGraph graph(slice(traces, 0, at), sanitized.addresses, 1);
  core::Options options;
  options.threads = 1;
  core::Engine engine(graph, experiment().ip2as(), experiment().orgs(),
                      experiment().relationships(), options);
  const auto publish = [&] {
    const core::Result result = engine.run();
    const std::string bytes = store::serialize_snapshot(
        store::make_snapshot_data(result, graph, experiment().ip2as()));
    EXPECT_FALSE(result.inferences.empty());
  };
  publish();  // warm-up

  const std::size_t first_halves = graph.half_count();
  for (; at < traces.size(); at += 500) {
    graph.fold(slice(traces, at, std::min(at + 500, traces.size())),
               sanitized.addresses, 1);
    const std::uint64_t allocations = allocations_of(publish);
    EXPECT_LE(allocations, kResidentPublishAllocations)
        << graph.half_count() << " halves";
  }
  EXPECT_GT(graph.half_count(), first_halves * 5 / 4);
}

// What `mapit serve` runs per request: the session frames it and the
// engine (or HEALTH) appends the answer to the connection's buffer.
TEST(AllocTripwire, QueryRequestsAllocateNothingOnceWarm) {
  using store::InferenceRecord;
  store::SnapshotData data;
  // 10.0.0.1 has both halves; 10.0.0.2 forward only, uncertain.
  data.inferences.push_back(
      InferenceRecord{0x0A000001u, 0, 0, 0, 0, 100, 200, 3, 4});
  data.inferences.push_back(
      InferenceRecord{0x0A000001u, 1, 1, 0, 0, 100, 300, 2, 4});
  data.inferences.push_back(InferenceRecord{
      0x0A000002u, 0, 2, store::kInferenceUncertain, 0, 300, 100, 1, 2});
  data.links.push_back(
      store::LinkRecord{0x0A000001u, 0x0A000009u, 100, 200, 2, 5, 8, 0, {}});
  data.links.push_back(
      store::LinkRecord{0x0A000003u, 0x0A000004u, 100, 200, 1, 2, 4, 0, {}});
  data.bgp_prefixes.push_back(store::PrefixRecord{0x0A000000u, 200, 24, {}});
  data.fallback_prefixes.push_back(
      store::PrefixRecord{0xC0000000u, 999, 4, {}});
  data.mappings.push_back(store::MappingRecord{0x0A000001u, 300, 1, {}});
  const std::string image = store::serialize_snapshot(data);
  const store::SnapshotReader reader = store::SnapshotReader::from_bytes(image);
  const query::QueryEngine engine(reader);

  const std::vector<std::string_view> requests = {
      "lookup 10.0.0.1 f",  // hit
      "lookup 10.0.0.9 b",  // miss
      "lookup 10.0.0.2 f",  // uncertain
      "addr 10.0.0.1",      // two records
      "addr 10.0.0.2",      // uncertain only: MISS
      "ip2as 10.0.0.77",    "ip2as 200.1.2.3",  "ip2as 64.0.0.1",
      "ip2as 10.0.0.1 b",   "ip2as 10.0.0.1 f", "links 200 100",
      "links 1 2",          "stats",            "HEALTH",
      "   ",                "frobnicate",       "lookup 10.0.0.1",
      "lookup nonsense f",  "lookup 10.0.0.1 x", "addr",
      "addr 1.2.3.4 extra", "ip2as",            "ip2as 1.2.3.4 q",
      "links 100",          "links abc 100",    "stats now"};
  const auto started = std::chrono::steady_clock::now();
  const std::string no_swap_error;
  const auto health = [&](std::string& out) {
    query::format_health(out, engine, 1, 0, started, 0, 0, 0, 0,
                         no_swap_error);
  };

  std::string lines;
  std::string frames;
  for (const std::string_view request : requests) {
    lines.append(request).append("\r\n");
    query::append_binary_frame(frames, request);
  }
  query::ProtocolSession line_session(engine, 1 << 20, health);
  query::ProtocolSession binary_session(engine, 1 << 20, health);
  std::string out;
  binary_session.feed(std::string_view(query::kBinaryProtocolMagic, 4), out);
  ASSERT_TRUE(binary_session.binary_mode());

  for (auto [session, batch] : {std::pair{&line_session, &lines},
                                std::pair{&binary_session, &frames}}) {
    out.clear();
    session->feed(*batch, out);  // warm-up: the buffers grow here
    const std::string warm = out;
    constexpr int kPasses = 8;
    const std::uint64_t allocations = allocations_of([&] {
      for (int pass = 0; pass < kPasses; ++pass) {
        out.clear();
        session->feed(*batch, out);
      }
    });
    EXPECT_EQ(out, warm);
    EXPECT_EQ(allocations, 0u)
        << (session->binary_mode() ? "binary" : "line") << ": "
        << allocations << " allocations over " << kPasses * requests.size()
        << " requests";
  }
  EXPECT_NE(out.find("OK crc32="), std::string::npos);
  EXPECT_NE(out.find("10.0.0.1|f|100|200|direct|3/4;10.0.0.1|b|"),
            std::string::npos);
}

}  // namespace
}  // namespace mapit
