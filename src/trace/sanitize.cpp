#include "trace/sanitize.h"

#include <optional>
#include <utility>
#include <vector>

#include "net/flat_set.h"
#include "parallel/thread_pool.h"

namespace mapit::trace {

namespace {

bool quotes_ttl0(const TraceHop& hop) {
  return hop.address && hop.quoted_ttl && *hop.quoted_ttl == 0;
}

/// What one worker learns about its ascending trace range.
struct Part {
  std::size_t discarded = 0;
  std::size_t removed_hops = 0;
  /// Addresses of the hops that survive into the clean corpus, and of every
  /// other raw hop. Each raw hop lands in exactly one of the two.
  net::FlatSet64 kept;
  net::FlatSet64 dropped;
};

}  // namespace

SanitizeResult sanitize(TraceCorpus corpus, unsigned threads) {
  std::vector<Trace>& traces = corpus.traces();
  const unsigned resolved = parallel::resolve_threads(threads);
  std::optional<parallel::ThreadPool> pool;
  if (resolved > 1 && traces.size() > 1) pool.emplace(resolved);

  // Per-trace sanitization is independent: workers clean ascending chunks
  // in place and flag the traces to discard; the compaction below keeps
  // corpus order, so the result is the same for every thread count.
  std::vector<char> discard(traces.size(), 0);
  std::vector<Part> parts(pool ? pool->size() : 1);
  parallel::for_ranges(
      pool ? &*pool : nullptr, traces.size(),
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        Part& part = parts[worker];
        for (std::size_t i = begin; i < end; ++i) {
          std::vector<TraceHop>& hops = traces[i].hops;
          const std::size_t raw_hops = hops.size();
          std::erase_if(hops, [&](const TraceHop& hop) {
            if (!quotes_ttl0(hop)) return false;
            part.dropped.insert(hop.address->value());
            return true;
          });
          part.removed_hops += raw_hops - hops.size();
          const bool keep = !traces[i].has_interface_cycle();
          for (const TraceHop& hop : hops) {
            if (hop.address) {
              (keep ? part.kept : part.dropped).insert(hop.address->value());
            }
          }
          if (!keep) {
            discard[i] = 1;
            ++part.discarded;
          }
        }
      });

  SanitizeResult result;
  result.stats.input_traces = traces.size();
  std::size_t retained = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (discard[i] != 0) continue;
    if (retained != i) traces[retained] = std::move(traces[i]);
    ++retained;
  }
  traces.resize(retained);
  result.clean = std::move(corpus);

  net::FlatSet64 kept;
  net::FlatSet64 seen;
  for (const Part& part : parts) {
    result.stats.discarded_traces += part.discarded;
    result.stats.removed_ttl0_hops += part.removed_hops;
    part.kept.for_each([&](std::uint64_t key) {
      kept.insert(key);
      seen.insert(key);
    });
    part.dropped.for_each([&](std::uint64_t key) { seen.insert(key); });
  }
  result.addresses = net::sorted_addresses(seen);
  result.stats.input_addresses = result.addresses.size();
  result.stats.retained_addresses = kept.size();
  return result;
}

}  // namespace mapit::trace
