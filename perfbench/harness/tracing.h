// Spans and noise-free cost counters for the traced benchmark run.
//
// A Span wraps one call (or one loop of identical calls) into a MAP-IT
// module's public API. It records name, start, end, parent span and run id
// (the repetition, batch or phase it belongs to), plus two stand-ins for wall
// time that scheduling noise cannot move:
//   * CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID);
//   * heap allocations and bytes, counted by the global operator new this
//     binary replaces (tracing.cpp).
// Allocations are counted process-wide so that the library's own worker
// pools are included; threads that run load, not the system under test
// (query clients, the server's event loop), opt out with
// exclude_thread_from_alloc_counts() so the counts repeat exactly.
//
// Spans are recorded only by the harness's main thread, kept in memory, and
// written out by write_trace() when the run ends. With tracing off a Span
// costs one branch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] std::uint64_t now_ns();         ///< steady clock
[[nodiscard]] std::uint64_t thread_cpu_ns();  ///< calling thread's CPU time

struct AllocCount {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
/// Allocations so far by every thread that did not opt out. Counting runs
/// only while tracing is on.
[[nodiscard]] AllocCount alloc_count();
void exclude_thread_from_alloc_counts();

void set_tracing(bool on);
[[nodiscard]] bool tracing();

class Span {
 public:
  /// `name` must outlive the run (a string literal). `calls` is the number
  /// of public calls the span covers (loops of tiny calls are spanned once,
  /// and the reducer divides by `calls`).
  Span(const char* name, std::uint32_t run, std::uint64_t calls = 1);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// A measured value attached to a run (iterations, counts, ratios); `name`
/// must outlive the run.
void counter(const char* name, std::uint32_t run, double value);

/// Free-form key/value written into the trace file header (workload, seed,
/// the CLI's wall time on cold_snapshot).
void trace_meta(const std::string& key, const std::string& value);

/// Writes every span, counter and meta line as tab-separated text.
void write_trace(const std::string& path);

}  // namespace perfbench
