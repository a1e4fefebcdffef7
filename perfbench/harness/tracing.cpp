#include "tracing.h"

#include <time.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

// One counter pair per thread (shards are handed out round robin), each on
// its own cache line: a shared pair would bounce between the library's
// worker threads and slow the traced run. A thread's counts outlive it.
struct alignas(64) AllocShard {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bytes{0};
};
constexpr unsigned kShards = 64;
AllocShard g_shards[kShards];
std::atomic<unsigned> g_next_shard{0};
std::atomic<bool> g_counting{false};
thread_local bool t_excluded = false;
thread_local AllocShard* t_shard = nullptr;

void note_allocation(std::size_t size) {
  if (!g_counting.load(std::memory_order_relaxed) || t_excluded) return;
  if (t_shard == nullptr) {
    t_shard = &g_shards[g_next_shard.fetch_add(1, std::memory_order_relaxed) %
                        kShards];
  }
  t_shard->count.fetch_add(1, std::memory_order_relaxed);
  t_shard->bytes.fetch_add(size, std::memory_order_relaxed);
}

struct SpanRecord {
  const char* name;
  std::uint32_t run;
  std::int64_t parent;
  std::uint64_t calls;
  std::uint64_t start_ns;
  std::uint64_t end_ns = 0;
  std::uint64_t cpu_start;
  std::uint64_t cpu_ns = 0;
  AllocCount alloc_start;
  AllocCount allocs;
};

struct CounterRecord {
  const char* name;
  std::uint32_t run;
  double value;
};

bool g_tracing = false;
std::vector<SpanRecord> g_spans;
std::vector<CounterRecord> g_counters;
std::vector<std::pair<std::string, std::string>> g_meta;
std::vector<std::int64_t> g_open;  ///< stack of open span indices

std::uint64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void* allocate(std::size_t size) {
  note_allocation(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  note_allocation(size);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

std::uint64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

AllocCount alloc_count() {
  AllocCount total;
  for (const AllocShard& shard : g_shards) {
    total.count += shard.count.load(std::memory_order_relaxed);
    total.bytes += shard.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

void exclude_thread_from_alloc_counts() { t_excluded = true; }

void set_tracing(bool on) {
  g_tracing = on;
  g_counting.store(on, std::memory_order_relaxed);
  if (on) g_spans.reserve(1 << 14);
}

bool tracing() { return g_tracing; }

Span::Span(const char* name, std::uint32_t run, std::uint64_t calls) {
  if (!g_tracing) return;
  index_ = static_cast<std::int64_t>(g_spans.size());
  const std::int64_t parent = g_open.empty() ? -1 : g_open.back();
  g_spans.push_back(SpanRecord{name, run, parent, calls, 0, 0, 0, 0, {}, {}});
  g_open.push_back(index_);
  // Counters last, so the bookkeeping above is outside the measured span.
  SpanRecord& record = g_spans.back();
  record.alloc_start = alloc_count();
  record.cpu_start = thread_cpu_ns();
  record.start_ns = now_ns();
}

Span::~Span() {
  if (index_ < 0) return;
  const std::uint64_t end = now_ns();
  const std::uint64_t cpu = thread_cpu_ns();
  const AllocCount allocs = alloc_count();
  SpanRecord& record = g_spans[static_cast<std::size_t>(index_)];
  record.end_ns = end;
  record.cpu_ns = cpu - record.cpu_start;
  record.allocs = {allocs.count - record.alloc_start.count,
                   allocs.bytes - record.alloc_start.bytes};
  g_open.pop_back();
}

void counter(const char* name, std::uint32_t run, double value) {
  if (g_tracing) g_counters.push_back({name, run, value});
}

void trace_meta(const std::string& key, const std::string& value) {
  if (g_tracing) g_meta.emplace_back(key, value);
}

void write_trace(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  char line[512];
  for (const auto& [key, value] : g_meta) {
    out << "meta\t" << key << '\t' << value << '\n';
  }
  for (const SpanRecord& s : g_spans) {
    std::snprintf(line, sizeof(line),
                  "span\t%s\t%u\t%lld\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\n",
                  s.name, s.run, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.calls),
                  static_cast<unsigned long long>(s.start_ns),
                  static_cast<unsigned long long>(s.end_ns),
                  static_cast<unsigned long long>(s.cpu_ns),
                  static_cast<unsigned long long>(s.allocs.count),
                  static_cast<unsigned long long>(s.allocs.bytes));
    out << line;
  }
  for (const CounterRecord& c : g_counters) {
    std::snprintf(line, sizeof(line), "counter\t%s\t%u\t%.17g\n", c.name,
                  c.run, c.value);
    out << line;
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench

// Counting allocator for the whole process (see tracing.h).
void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
