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

}  // namespace

bool sanitize_trace(Trace& trace, SanitizeTally& tally) {
  ++tally.traces;
  std::vector<TraceHop>& hops = trace.hops;
  const std::size_t raw_hops = hops.size();
  std::erase_if(hops, [&](const TraceHop& hop) {
    if (!quotes_ttl0(hop)) return false;
    tally.dropped.insert(hop.address->value());
    return true;
  });
  tally.removed_hops += raw_hops - hops.size();
  const bool keep = !trace.has_interface_cycle();
  for (const TraceHop& hop : hops) {
    if (hop.address) {
      (keep ? tally.kept : tally.dropped).insert(hop.address->value());
    }
  }
  if (!keep) ++tally.discarded;
  return keep;
}

SanitizeStats merge_tallies(std::span<const SanitizeTally> tallies,
                            std::vector<net::Ipv4Address>& addresses) {
  SanitizeStats stats;
  net::FlatSet64 kept;
  net::FlatSet64 seen;
  for (const SanitizeTally& tally : tallies) {
    stats.input_traces += tally.traces;
    stats.discarded_traces += tally.discarded;
    stats.removed_ttl0_hops += tally.removed_hops;
    tally.kept.for_each([&](std::uint64_t key) {
      kept.insert(key);
      seen.insert(key);
    });
    tally.dropped.for_each([&](std::uint64_t key) { seen.insert(key); });
  }
  addresses = net::sorted_addresses(seen);
  stats.input_addresses = addresses.size();
  stats.retained_addresses = kept.size();
  return stats;
}

SanitizeResult sanitize(TraceCorpus corpus, unsigned threads) {
  std::vector<Trace>& traces = corpus.traces();
  const unsigned resolved = parallel::resolve_threads(threads);
  std::optional<parallel::ThreadPool> pool;
  if (resolved > 1 && traces.size() > 1) pool.emplace(resolved);

  // Per-trace sanitization is independent: workers clean ascending chunks
  // in place and flag the traces to discard; the compaction below keeps
  // corpus order, so the result is the same for every thread count.
  std::vector<char> discard(traces.size(), 0);
  std::vector<SanitizeTally> tallies(pool ? pool->size() : 1);
  parallel::for_ranges(
      pool ? &*pool : nullptr, traces.size(),
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (!sanitize_trace(traces[i], tallies[worker])) discard[i] = 1;
        }
      });

  SanitizeResult result;
  std::size_t retained = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (discard[i] != 0) continue;
    if (retained != i) traces[retained] = std::move(traces[i]);
    ++retained;
  }
  traces.resize(retained);
  result.clean = std::move(corpus);
  result.stats = merge_tallies(tallies, result.addresses);
  return result;
}

}  // namespace mapit::trace
