#include "trace/sanitize.h"

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

bool sanitize_trace(Trace& trace, SanitizeTally& tally, std::size_t shared) {
  ++tally.traces;
  // Strip the quoted-TTL-0 hops in place, counting the survivors of the
  // shared prefix; they lead the clean trace.
  std::vector<TraceHop>& hops = trace.hops;
  std::size_t clean = 0;
  std::size_t clean_shared = 0;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (quotes_ttl0(hops[i])) {
      if (i >= shared) tally.dropped.insert(hops[i].address->value());
      continue;
    }
    if (i < shared) ++clean_shared;
    if (clean != i) hops[clean] = hops[i];
    ++clean;
  }
  tally.removed_hops += hops.size() - clean;
  hops.resize(clean);
  const bool keep = !trace.has_interface_cycle();
  // A kept trace after a discarded one must still put the shared survivors
  // into `kept`; every other case already has them where they belong.
  const std::size_t known = keep && !tally.last_kept ? 0 : clean_shared;
  for (std::size_t i = known; i < clean; ++i) {
    if (hops[i].address) {
      (keep ? tally.kept : tally.dropped).insert(hops[i].address->value());
    }
  }
  if (!keep) ++tally.discarded;
  tally.repeated_hops = keep && tally.last_kept ? clean_shared : 0;
  tally.last_kept = keep;
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
  const auto pool = parallel::pool_for(threads, corpus.size());
  return sanitize(std::move(corpus), pool.get());
}

SanitizeResult sanitize(TraceCorpus corpus, parallel::ThreadPool* pool) {
  std::vector<Trace>& traces = corpus.traces();
  // Per-trace sanitization is independent: workers clean ascending chunks
  // in place and flag the traces to discard; the compaction below keeps
  // corpus order, so the result is the same for every thread count.
  std::vector<char> discard(traces.size(), 0);
  std::vector<SanitizeTally> tallies(pool ? pool->size() : 1);
  parallel::for_ranges(
      pool, traces.size(),
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (!sanitize_trace(traces[i], tallies[worker], 0)) discard[i] = 1;
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
