#include "trace/trace.h"

#include <algorithm>
#include <array>

#include "net/flat_set.h"

namespace mapit::trace {

std::size_t Trace::responsive_hops() const {
  return static_cast<std::size_t>(
      std::count_if(hops.begin(), hops.end(),
                    [](const TraceHop& hop) { return hop.address.has_value(); }));
}

bool Trace::has_interface_cycle() const {
  // Collapse immediate repeats (nulls are skipped, they separate nothing);
  // a cycle is then any address seen twice in what remains, since its two
  // occurrences cannot be neighbours there. Parsed traces hold at most 255
  // hops, so the collapsed sequence fits on the stack, and a pairwise scan
  // of a typical dozen addresses beats sorting them.
  std::array<std::uint32_t, 256> stack;
  std::vector<std::uint32_t> heap;
  std::uint32_t* sequence = stack.data();
  if (hops.size() > stack.size()) {
    heap.resize(hops.size());
    sequence = heap.data();
  }
  std::size_t count = 0;
  for (const TraceHop& hop : hops) {
    if (!hop.address) continue;
    const std::uint32_t value = hop.address->value();
    if (count > 0 && sequence[count - 1] == value) continue;
    if (std::find(sequence, sequence + count, value) != sequence + count) {
      return true;
    }
    sequence[count++] = value;
  }
  return false;
}

std::vector<net::Ipv4Address> TraceCorpus::distinct_addresses() const {
  net::FlatSet64 seen;
  for (const Trace& trace : traces_) {
    for (const TraceHop& hop : trace.hops) {
      if (hop.address) seen.insert(hop.address->value());
    }
  }
  return net::sorted_addresses(seen);
}

std::vector<net::Ipv4Address> TraceCorpus::adjacent_addresses() const {
  net::FlatSet64 seen;
  for (const Trace& trace : traces_) {
    for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
      const TraceHop& a = trace.hops[i];
      const TraceHop& b = trace.hops[i + 1];
      if (a.address && b.address &&
          b.probe_ttl == a.probe_ttl + 1) {
        seen.insert(a.address->value());
        seen.insert(b.address->value());
      }
    }
  }
  return net::sorted_addresses(seen);
}

}  // namespace mapit::trace
