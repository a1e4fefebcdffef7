#include "reference/naive_mapit.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "net/special_purpose.h"

namespace mapit::reference {

namespace {

using asdata::Asn;
using asdata::kUnknownAsn;
using graph::Direction;
using graph::InterfaceHalf;

/// A direct inference: AS_N, and "previous IP2AS(h)" read as the half's
/// base origin (ALGORITHM.md, "Direct inferences").
struct Direct {
  Asn router_as = kUnknownAsn;
  Asn other_as = kUnknownAsn;
  bool stub = false;
  std::uint32_t votes = 0;
  std::uint32_t neighbor_count = 0;
};

/// Everything the algorithm keeps about one half (ALGORITHM.md, "Per-half
/// IP2AS"): its direct inference, the indirect one its other side gave
/// it, the two override slots those own, and the two flags.
struct HalfState {
  std::optional<Direct> direct;
  std::optional<InterfaceHalf> indirect_source;
  std::optional<Asn> direct_override;
  std::optional<Asn> indirect_override;
  bool uncertain = false;
  bool suppressed = false;
};

/// What the §4.6 repetition check compares for one half: the state minus
/// the evidence counts and the suppression flag (DESIGN.md §5).
struct Signature {
  std::optional<std::pair<Asn, Asn>> direct;
  bool stub = false;
  std::optional<InterfaceHalf> indirect_source;
  std::optional<Asn> direct_override;
  std::optional<Asn> indirect_override;
  bool uncertain = false;

  friend bool operator==(const Signature&, const Signature&) = default;
};

struct Majority {
  Asn asn = kUnknownAsn;  ///< the dominating group's representative
  std::size_t count = 0;  ///< the group's votes
  bool strict = false;    ///< more votes than every other group
};

class NaiveMapit {
 public:
  NaiveMapit(const graph::InterfaceGraph& graph, const bgp::Ip2As& ip2as,
             const asdata::As2Org& orgs, const asdata::AsRelationships& rels,
             const core::Options& options)
      : graph_(graph),
        ip2as_(ip2as),
        orgs_(orgs),
        rels_(rels),
        options_(options) {}

  Output run() {
    // Alternate add and remove steps until the end-of-remove state repeats
    // (§4.6), then apply the stub heuristic once (§4.8).
    std::vector<std::map<InterfaceHalf, Signature>> seen;
    for (int i = 0; i < options_.max_iterations; ++i) {
      add_step();
      remove_step();
      std::map<InterfaceHalf, Signature> state = signature();
      if (std::find(seen.begin(), seen.end(), state) != seen.end()) break;
      seen.push_back(std::move(state));
    }
    stub_step();
    return output();
  }

 private:
  // --- mappings ---------------------------------------------------------

  [[nodiscard]] Asn base(net::Ipv4Address address) const {
    return ip2as_.origin(address);
  }

  [[nodiscard]] std::uint64_t group(Asn asn) const {
    return options_.sibling_grouping ? orgs_.group_key(asn)
                                     : (std::uint64_t{1} << 62) | asn;
  }

  /// The state of `half`; an empty one when the half never held any.
  [[nodiscard]] const HalfState& at(const InterfaceHalf& half) const {
    static const HalfState kEmpty;
    const auto it = state_.find(half);
    return it == state_.end() ? kEmpty : it->second;
  }

  /// Effective mapping: direct override, else indirect override, else the
  /// BGP origin.
  [[nodiscard]] Asn effective(const InterfaceHalf& half) const {
    const HalfState& st = at(half);
    if (st.direct_override) return *st.direct_override;
    if (st.indirect_override) return *st.indirect_override;
    return base(half.address);
  }

  /// Snapshot of every effective mapping that differs from the base; all
  /// counting within a pass reads this (§4.4.5).
  void freeze() {
    frozen_.clear();
    for (const auto& [half, st] : state_) {
      if (st.direct_override || st.indirect_override) {
        frozen_[half] = effective(half);
      }
    }
  }

  [[nodiscard]] Asn frozen(const InterfaceHalf& half) const {
    const auto it = frozen_.find(half);
    return it == frozen_.end() ? base(half.address) : it->second;
  }

  // --- counting (§4.4.1) --------------------------------------------------

  /// Neighbour n of half {a, d} votes with the frozen mapping of the
  /// opposite-direction half {n, opposite(d)}.
  [[nodiscard]] std::vector<Asn> votes(const InterfaceHalf& half) const {
    std::vector<Asn> out;
    for (net::Ipv4Address neighbor : graph_.neighbors(half)) {
      out.push_back(frozen({neighbor, graph::opposite(half.direction)}));
    }
    return out;
  }

  /// Votes grouped by sibling organization; unannounced neighbours count
  /// in |N| only. The group's representative is its most frequent ASN,
  /// ties to the lowest.
  [[nodiscard]] Majority majority(const InterfaceHalf& half) const {
    std::map<std::uint64_t, std::map<Asn, std::size_t>> groups;
    for (Asn asn : votes(half)) {
      if (asn != kUnknownAsn) ++groups[group(asn)][asn];
    }
    Majority best;
    std::size_t at_best = 0;  // groups reaching best.count
    for (const auto& [key, members] : groups) {
      std::size_t total = 0;
      Asn representative = kUnknownAsn;
      std::size_t most = 0;
      for (const auto& [asn, count] : members) {  // ascending ASN
        total += count;
        if (count > most) {
          most = count;
          representative = asn;
        }
      }
      if (total > best.count) {
        best = {representative, total, false};
        at_best = 1;
      } else if (total == best.count) {
        ++at_best;
      }
    }
    best.strict = best.count > 0 && at_best == 1;
    return best;
  }

  [[nodiscard]] bool meets_fraction(std::size_t count,
                                    std::size_t total) const {
    return static_cast<double>(count) + 1e-9 >=
           options_.f * static_cast<double>(total);
  }

  // --- state changes ------------------------------------------------------

  /// The indirect inference on the direct one's other side (§4.4.2),
  /// skipped for IXP addresses (footnote 7) and special-purpose far ends.
  void propagate_indirect(const InterfaceHalf& source) {
    if (!options_.update_other_sides) return;
    if (options_.ixp_aware && ip2as_.is_ixp(source.address)) return;
    const HalfState& st = at(source);
    if (!st.direct) return;
    const InterfaceHalf other = graph_.other_side_half(source);
    if (net::is_special_purpose(other.address)) return;
    const Asn router = st.direct->router_as;
    touched_.insert(other);
    HalfState& ot = state_[other];
    ot.indirect_source = source;
    ot.indirect_override = router;
  }

  void discard_indirect(const InterfaceHalf& half) {
    HalfState& st = state_[half];
    st.indirect_source.reset();
    st.indirect_override.reset();
  }

  /// Drops a direct inference with its override; its indirect inference on
  /// the other side dies with it.
  void discard_direct(const InterfaceHalf& half, bool suppress) {
    HalfState& st = state_[half];
    if (!st.direct) return;
    st.direct.reset();
    st.direct_override.reset();
    st.uncertain = false;
    if (suppress) st.suppressed = true;
    const InterfaceHalf other = graph_.other_side_half(half);
    if (at(other).indirect_source == half) discard_indirect(other);
  }

  // --- the add step (§4.4) ------------------------------------------------

  void add_step() {
    for (auto& [half, st] : state_) st.suppressed = false;
    bool changed = true;
    while (changed) {
      freeze();
      changed = direct_pass();
      if (options_.resolve_duals) changed |= resolve_duals();
      if (options_.resolve_inverses) changed |= resolve_inverses();
    }
  }

  /// Every half of every interface, in (address, direction) order.
  template <typename Fn>
  void for_each_record_half(Fn&& fn) {
    for (const graph::InterfaceRecord& record : graph_.interfaces()) {
      fn(graph::forward_half(record.address));
      fn(graph::backward_half(record.address));
    }
  }

  bool direct_pass() {
    bool changed = false;
    for_each_record_half([&](const InterfaceHalf& half) {
      const std::size_t n = graph_.neighbors(half).size();
      if (n < 2) return;  // §4.3's two-address floor
      touched_.insert(half);
      const HalfState& st = at(half);
      if (st.direct || st.suppressed) return;
      const Majority m = majority(half);
      if (!m.strict || !meets_fraction(m.count, n)) return;
      const Asn previous = base(half.address);
      if (group(m.asn) == group(previous)) return;
      HalfState& mutable_st = state_[half];
      mutable_st.direct = Direct{m.asn, previous, false,
                                 static_cast<std::uint32_t>(m.count),
                                 static_cast<std::uint32_t>(n)};
      mutable_st.direct_override = m.asn;
      propagate_indirect(half);
      changed = true;
    });
    return changed;
  }

  /// Both halves of one interface inferred to different ASes: the forward
  /// inference wins (§4.4.3), unless the address is unannounced.
  bool resolve_duals() {
    bool changed = false;
    for (const graph::InterfaceRecord& record : graph_.interfaces()) {
      const InterfaceHalf f = graph::forward_half(record.address);
      const InterfaceHalf b = graph::backward_half(record.address);
      if (!at(f).direct || !at(b).direct) continue;
      if (base(record.address) == kUnknownAsn) continue;
      if (group(at(f).direct->router_as) == group(at(b).direct->router_as)) {
        continue;
      }
      discard_direct(b, /*suppress=*/true);
      changed = true;
    }
    return changed;
  }

  /// {A→B} forward on a, {B→A} backward on b ∈ N_F(a): the forward one
  /// wins, or both are uncertain when b's other side holds a direct
  /// inference too (§4.4.4). Uncertainty is recomputed every time.
  bool resolve_inverses() {
    for (auto& [half, st] : state_) st.uncertain = false;
    bool changed = false;
    for (const graph::InterfaceRecord& record : graph_.interfaces()) {
      const InterfaceHalf a = graph::forward_half(record.address);
      if (!at(a).direct) continue;
      const Direct forward = *at(a).direct;
      for (net::Ipv4Address neighbor : graph_.neighbors(a)) {
        const InterfaceHalf b = graph::backward_half(neighbor);
        if (!at(b).direct) continue;
        const Direct& backward = *at(b).direct;
        if (group(backward.router_as) != group(forward.other_as) ||
            group(backward.other_as) != group(forward.router_as)) {
          continue;
        }
        if (at(graph_.other_side_half(b)).direct) {
          state_[a].uncertain = true;
          state_[b].uncertain = true;
        } else {
          discard_direct(b, /*suppress=*/true);
          changed = true;
        }
      }
    }
    return changed;
  }

  // --- the remove step (§4.5) ---------------------------------------------

  [[nodiscard]] bool supported(const InterfaceHalf& half) const {
    const Direct& direct = *at(half).direct;
    const std::vector<Asn> all = votes(half);
    if (direct.stub) return !all.empty();
    if (options_.remove_rule == core::RemoveRule::kMajority) {
      std::size_t same = 0;
      for (Asn asn : all) {
        if (asn != kUnknownAsn && group(asn) == group(direct.router_as)) {
          ++same;
        }
      }
      return 2 * same > all.size();
    }
    const Majority m = majority(half);
    return m.strict && group(m.asn) == group(direct.router_as) &&
           meets_fraction(m.count, all.size());
  }

  /// Keeps the mapping as an indirect inference tied to the other side,
  /// unless the half already carries a live one.
  void demote(const InterfaceHalf& half) {
    HalfState& st = state_[half];
    st.direct.reset();
    st.uncertain = false;
    const bool live = st.indirect_source && at(*st.indirect_source).direct;
    if (!live) {
      st.indirect_override = st.direct_override;
      st.indirect_source = graph_.other_side_half(half);
    }
    st.direct_override.reset();
  }

  void remove_step() {
    bool discarded = true;
    while (discarded) {
      discarded = false;
      freeze();
      for_each_record_half([&](const InterfaceHalf& half) {
        if (at(half).direct && !supported(half)) demote(half);
      });
      for (auto& [half, st] : state_) {
        if (st.indirect_source && !at(*st.indirect_source).direct) {
          discard_indirect(half);
          discarded = true;
        }
      }
    }
  }

  // --- convergence (§4.6) and the stub heuristic (§4.8) -------------------

  /// The state of every half the algorithm ever considered, empty or not.
  [[nodiscard]] std::map<InterfaceHalf, Signature> signature() const {
    std::map<InterfaceHalf, Signature> out;
    for (const InterfaceHalf& half : touched_) {
      const HalfState& st = at(half);
      Signature& sig = out[half];
      if (st.direct) {
        sig.direct = std::make_pair(st.direct->router_as, st.direct->other_as);
        sig.stub = st.direct->stub;
      }
      sig.indirect_source = st.indirect_source;
      sig.direct_override = st.direct_override;
      sig.indirect_override = st.indirect_override;
      sig.uncertain = st.uncertain;
    }
    return out;
  }

  [[nodiscard]] bool has_inference(const InterfaceHalf& half) const {
    const HalfState& st = at(half);
    return st.direct ||
           (st.indirect_source && at(*st.indirect_source).direct);
  }

  void stub_step() {
    if (!options_.stub_heuristic) return;
    freeze();
    for (const graph::InterfaceRecord& record : graph_.interfaces()) {
      const InterfaceHalf h_f = graph::forward_half(record.address);
      const InterfaceHalf h_b = graph::backward_half(record.address);
      const auto& forward = graph_.neighbors(h_f);
      if (forward.size() != 1) continue;
      const InterfaceHalf n_b = graph::backward_half(forward[0]);
      if (has_inference(h_b) || has_inference(n_b) || has_inference(h_f)) {
        continue;
      }
      const Asn as_h = frozen(h_f);
      const Asn as_n = frozen(n_b);
      if (as_h == kUnknownAsn || as_n == kUnknownAsn) continue;
      if (group(as_h) == group(as_n)) continue;
      if (!rels_.is_stub(as_n)) continue;
      touched_.insert(h_f);
      HalfState& st = state_[h_f];
      st.direct = Direct{as_n, as_h, /*stub=*/true, 1, 1};
      st.direct_override = as_n;
      propagate_indirect(h_f);
    }
  }

  // --- outputs ------------------------------------------------------------

  [[nodiscard]] Output output() const {
    Output out;
    for (const auto& [half, st] : state_) {  // (address, direction) order
      if (st.direct) {
        const Direct& d = *st.direct;
        (st.uncertain ? out.uncertain : out.inferences)
            .push_back(core::Inference{
                half, d.router_as, d.other_as,
                d.stub ? core::InferenceKind::kStub
                       : core::InferenceKind::kDirect,
                st.uncertain, d.votes, d.neighbor_count});
      } else if (st.indirect_source) {
        const HalfState& source = at(*st.indirect_source);
        if (source.direct && !source.uncertain) {
          const Direct& d = *source.direct;
          out.inferences.push_back(core::Inference{
              half, d.other_as, d.router_as, core::InferenceKind::kIndirect,
              false, d.votes, d.neighbor_count});
        }
      }
      if (st.direct_override || st.indirect_override) {
        out.final_mappings.emplace_back(half, effective(half));
      }
    }
    return out;
  }

  const graph::InterfaceGraph& graph_;
  const bgp::Ip2As& ip2as_;
  const asdata::As2Org& orgs_;
  const asdata::AsRelationships& rels_;
  const core::Options& options_;

  std::map<InterfaceHalf, HalfState> state_;
  std::set<InterfaceHalf> touched_;
  std::map<InterfaceHalf, Asn> frozen_;
};

}  // namespace

Output naive_mapit(const graph::InterfaceGraph& graph, const bgp::Ip2As& ip2as,
                   const asdata::As2Org& orgs,
                   const asdata::AsRelationships& rels,
                   const core::Options& options) {
  return NaiveMapit(graph, ip2as, orgs, rels, options).run();
}

}  // namespace mapit::reference
