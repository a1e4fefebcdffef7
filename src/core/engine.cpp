#include "core/engine.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <tuple>
#include <utility>

#include "core/checkpoint.h"
#include "core/convergence.h"
#include "core/wire.h"
#include "net/error.h"
#include "net/special_purpose.h"

namespace mapit::core {

namespace {

/// f-threshold test with a tolerance so that f = 0.5 accepts an exact half.
[[nodiscard]] bool meets_fraction(std::size_t count, std::size_t total,
                                  double f) {
  return static_cast<double>(count) + 1e-9 >=
         f * static_cast<double>(total);
}

/// Puts a list built in HalfId order into address order. HalfId order is
/// two runs, each ascending by address: the records' entries (the first
/// `record_entries`), then the phantoms'.
template <typename T, typename KeyOf>
void merge_runs(std::vector<T>& list, std::size_t record_entries,
                KeyOf key_of) {
  std::inplace_merge(
      list.begin(), list.begin() + static_cast<std::ptrdiff_t>(record_entries),
      list.end(),
      [&](const T& a, const T& b) { return key_of(a) < key_of(b); });
}

}  // namespace

Engine::Engine(const graph::InterfaceGraph& graph, const bgp::Ip2As& ip2as,
               const asdata::As2Org& orgs, const asdata::AsRelationships& rels,
               Options options)
    : graph_(graph),
      ip2as_(ip2as),
      orgs_(orgs),
      rels_(rels),
      options_(std::move(options)) {
  MAPIT_ENSURE(options_.f >= 0.0 && options_.f <= 1.0,
               "f must be within [0, 1]");
  MAPIT_ENSURE(options_.max_iterations > 0, "max_iterations must be positive");
  const unsigned threads = parallel::resolve_threads(options_.threads);
  if (threads > 1) pool_ = std::make_unique<parallel::ThreadPool>(threads);
  const std::size_t workers = pool_ ? pool_->size() : 1;
  vote_scratch_.resize(workers);
  direct_buffers_.resize(workers);
  demote_buffers_.resize(workers);
}

// ---------------------------------------------------------------------------
// Mapping views
// ---------------------------------------------------------------------------

void Engine::reset_state() {
  // Sized here, not at construction: a fold may have grown the graph since
  // the last run. assign() keeps each slab's buffer when it is big enough.
  const std::size_t halves = graph_.half_count();
  halves_.assign(halves, HalfState{});
  has_direct_.assign(halves, 0);
  direct_index_.resize(halves);
  directs_.clear();
  indirect_source_.assign(halves, graph::kInvalidHalfId);
  held_.reset(halves);
  touched_.assign(halves, 0);
  base_.resize(halves);
  base_group_.resize(halves);
  resolve_base();
  // No half carries an override yet: the frozen view is the base mapping.
  view_ = base_;
  view_group_ = base_group_;
  stale_.clear();
  stale_.reserve(halves);  // one buffer for every pass's stale ids
  add_pending_.reset(halves);
  remove_pending_.reset(halves);
  add_sweep_ = true;
  remove_sweep_ = false;
  suppressed_list_.clear();
  uncertain_list_.clear();
  stats_ = EngineStats{};
  snapshots_.clear();
  tracker_ = ConvergenceTracker{};
}

void Engine::resolve_base() {
  // The two halves of an address share its base mapping: one prefix-trie
  // lookup and one group key per address, except for addresses the last
  // run resolved. The record run and the phantom run are each ascending by
  // address, so one forward cursor per run over the cache finds them.
  const std::size_t addresses = graph_.half_count() / 2;
  const std::size_t records = graph_.size();
  next_cache_.clear();
  next_cache_.reserve(addresses);
  for (const auto& [begin, end] :
       {std::pair{std::size_t{0}, records}, std::pair{records, addresses}}) {
    auto cached = base_cache_.cbegin();
    for (std::size_t i = begin; i < end; ++i) {
      const auto id = static_cast<HalfId>(2 * i);
      const net::Ipv4Address address = graph_.address_at(id);
      while (cached != base_cache_.cend() && cached->address < address) {
        ++cached;
      }
      BaseEntry entry;
      if (cached != base_cache_.cend() && cached->address == address) {
        entry = *cached;
      } else {
        const asdata::Asn asn = ip2as_.origin(address);
        entry = {address, asn, group_key(asn)};
      }
      base_[id] = base_[id + 1] = entry.asn;
      base_group_[id] = base_group_[id + 1] = entry.group;
      next_cache_.push_back(entry);
    }
  }
  merge_runs(next_cache_, records,
             [](const BaseEntry& entry) { return entry.address; });
  // Swapped in only when complete: a run that throws before this point
  // leaves the previous cache, still valid for the next run.
  base_cache_.swap(next_cache_);
}

asdata::Asn Engine::effective_as(HalfId id) const {
  const HalfState& st = halves_[id];
  if (st.direct_override) return *st.direct_override;
  if (st.indirect_override) return *st.indirect_override;
  return base_[id];
}

std::pair<asdata::Asn, std::uint64_t> Engine::view_entry(HalfId id) const {
  const HalfState& st = halves_[id];
  if (st.direct_override) return {*st.direct_override, direct(id).router_group};
  if (st.indirect_override) {
    return {*st.indirect_override, group_key(*st.indirect_override)};
  }
  return {base_[id], base_group_[id]};
}

void Engine::freeze_view() {
  // A view entry is a function of the half's effective mapping alone (an
  // override is always a known ASN, whose group key base_group_ would
  // hold too), and every change of that mapping goes through
  // mutate_mapping, which lists the half in stale_. So only those halves
  // can differ from the view; a pass changes few mappings.
  for (HalfId id : stale_) {
    std::tie(view_[id], view_group_[id]) = view_entry(id);
  }
  stale_.clear();
#ifndef NDEBUG
  for (std::size_t id = 0; id < halves_.size(); ++id) {
    const auto half = static_cast<HalfId>(id);
    const HalfState& st = halves_[id];
    // Every write site that makes or drops a direct or indirect inference
    // sets the half's override, its slab entry and its held_ bit together,
    // and a direct inference carries its ASes' group keys.
    const bool holds_direct = has_direct_[id] != 0;
    const bool indirect = indirect_source_[id] != graph::kInvalidHalfId;
    if (holds_direct != st.direct_override.has_value() ||
        indirect != st.indirect_override.has_value() ||
        ((holds_direct || indirect) && !held_.contains(half)) ||
        (holds_direct && (*st.direct_override != direct(half).router_as ||
                          direct(half).router_group !=
                              group_key(direct(half).router_as) ||
                          direct(half).other_group !=
                              group_key(direct(half).other_as)))) {
      throw InvariantError("engine scan slabs disagree with the state of "
                           "half " + std::to_string(id));
    }
    const asdata::Asn asn = effective_as(half);
    if (view_[id] != asn || view_group_[id] != group_key(asn)) {
      throw InvariantError("engine frozen view is stale at half " +
                           std::to_string(id));
    }
  }
#endif
}

// ---------------------------------------------------------------------------
// Counting
// ---------------------------------------------------------------------------

std::uint64_t Engine::group_key(asdata::Asn asn) const {
  return options_.sibling_grouping ? orgs_.group_key(asn)
                                   : (std::uint64_t{1} << 62) | asn;
}

Engine::MajorityResult Engine::count_majority(
    HalfId id, std::vector<VoteGroup>& scratch) const {
  // Group neighbour votes by sibling organization; remember per-ASN counts
  // so the representative is the most frequent sibling (paper §4.4.1).
  // Votes are flat slab reads: the neighbour span already names the
  // opposite-direction half ids, and the frozen view carries both the
  // mapping and its group key. All shared state read here is frozen for
  // the pass; the caller supplies its own scratch, so concurrent counts
  // over disjoint ids never touch the same memory.
  std::size_t live = 0;
  for (HalfId nid : graph_.neighbor_ids(id)) {
    const asdata::Asn asn = view_[nid];
    if (asn == asdata::kUnknownAsn) continue;  // denominator only
    const std::uint64_t key = view_group_[nid];
    VoteGroup* group = nullptr;
    for (std::size_t g = 0; g < live; ++g) {
      if (scratch[g].key == key) {
        group = &scratch[g];
        break;
      }
    }
    if (group == nullptr) {
      if (live == scratch.size()) scratch.emplace_back();
      group = &scratch[live++];
      group->key = key;
      group->count = 0;
      group->members.clear();
    }
    ++group->count;
    bool known = false;
    for (auto& [member, count] : group->members) {
      if (member == asn) {
        ++count;
        known = true;
        break;
      }
    }
    if (!known) group->members.emplace_back(asn, 1);
  }

  MajorityResult best;
  std::size_t runner_up = 0;
  for (std::size_t g = 0; g < live; ++g) {
    const VoteGroup& group = scratch[g];
    // Representative: most frequent member ASN, ties to the lowest ASN.
    asdata::Asn representative = asdata::kUnknownAsn;
    std::size_t rep_count = 0;
    for (const auto& [asn, count] : group.members) {
      if (count > rep_count || (count == rep_count && asn < representative)) {
        representative = asn;
        rep_count = count;
      }
    }
    if (group.count > best.count ||
        (group.count == best.count && representative < best.asn)) {
      runner_up = best.count;
      best.count = group.count;
      best.asn = representative;
      best.key = group.key;
    } else if (group.count > runner_up) {
      runner_up = group.count;
    }
  }
  best.strict = best.count > runner_up && best.count > 0;
  return best;
}

std::size_t Engine::group_count(HalfId id, std::uint64_t key) const {
  std::size_t count = 0;
  for (HalfId nid : graph_.neighbor_ids(id)) {
    if (view_[nid] != asdata::kUnknownAsn && view_group_[nid] == key) ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Half sets
// ---------------------------------------------------------------------------

template <typename Fn>
void Engine::HalfSet::for_each(Fn&& fn) const {
  for (std::size_t word = 0; word < words.size(); ++word) {
    for (std::uint64_t bits = words[word]; bits != 0; bits &= bits - 1) {
      fn(static_cast<HalfId>(word * 64 +
                             static_cast<unsigned>(std::countr_zero(bits))));
    }
  }
}

template <typename Fn>
void Engine::HalfSet::drain(Fn&& fn) {
  for (std::size_t word = 0; word < words.size(); ++word) {
    const std::uint64_t bits = std::exchange(words[word], 0);
    for (std::uint64_t rest = bits; rest != 0; rest &= rest - 1) {
      fn(static_cast<HalfId>(word * 64 +
                             static_cast<unsigned>(std::countr_zero(rest))));
    }
  }
}

// ---------------------------------------------------------------------------
// Pending sets
// ---------------------------------------------------------------------------

void Engine::mark_dependents_dirty(HalfId id) {
  // Holding a direct inference makes the add verdict "none" and is the
  // only way to a remove verdict other than "keep"; a half that gains or
  // loses one is queued by that write itself (make_direct, demote_direct;
  // discard_direct suppresses the half, and lifting that queues it).
  for (HalfId dependent : graph_.reverse_neighbor_ids(id)) {
    if (has_direct_[dependent]) {
      remove_pending_.insert(dependent);
    } else {
      add_pending_.insert(dependent);
    }
  }
}

template <typename Fn>
void Engine::mutate_mapping(HalfId id, Fn&& fn) {
  const asdata::Asn before = effective_as(id);
  fn(halves_[id]);
  if (effective_as(id) != before) {
    mark_dependents_dirty(id);
    stale_.push_back(id);
  }
}

// ---------------------------------------------------------------------------
// Bookkeeping
// ---------------------------------------------------------------------------

void Engine::clear_flags(std::vector<HalfId>& list, bool HalfState::*flag) {
  for (HalfId id : list) halves_[id].*flag = false;
  list.clear();
#ifndef NDEBUG
  for (std::size_t id = 0; id < halves_.size(); ++id) {
    if (halves_[id].*flag) {
      throw InvariantError("engine flag list misses half " +
                           std::to_string(id));
    }
  }
#endif
}

void Engine::discard_direct(HalfId id) {
  if (!has_direct_[id]) return;
  mutate_mapping(id, [&](HalfState& s) {
    has_direct_[id] = 0;
    s.direct_override.reset();
    s.uncertain = false;
    // Until the next add step, whose opening queues the half for add
    // evaluation when it lifts the suppression.
    s.suppressed = true;
  });
  suppressed_list_.push_back(id);
  // The indirect inference propagated to the other side dies with its
  // source (§4.4.2).
  const HalfId other = graph_.other_side_id(id);
  if (other != graph::kInvalidHalfId && indirect_source_[other] == id) {
    discard_indirect(other);
  }
}

void Engine::discard_indirect(HalfId id) {
  mutate_mapping(id, [&](HalfState& st) {
    indirect_source_[id] = graph::kInvalidHalfId;
    st.indirect_override.reset();
  });
}

// ---------------------------------------------------------------------------
// Add step (§4.4)
// ---------------------------------------------------------------------------

void Engine::apply_indirect(HalfId source) {
  if (!options_.update_other_sides) return;
  // IXP LANs are multipoint: the /30-/31 other-side relation does not hold
  // there (footnote 7).
  if (options_.ixp_aware && ip2as_.is_ixp(graph_.address_at(source))) return;
  if (!has_direct_[source]) return;
  const HalfId other = graph_.other_side_id(source);
  if (other == graph::kInvalidHalfId) return;
  if (net::is_special_purpose(graph_.address_at(other))) return;
  const asdata::Asn router = direct(source).router_as;
  touched_[other] = 1;
  held_.insert(other);
  mutate_mapping(other, [&](HalfState& ot) {
    indirect_source_[other] = source;
    ot.indirect_override = router;
  });
}

std::optional<Engine::DirectProposal> Engine::evaluate_direct(
    HalfId id, std::vector<VoteGroup>& scratch) {
  const auto neighbors = graph_.neighbor_ids(id);
  if (neighbors.size() < 2) return std::nullopt;  // §4.3's two-address floor
  touched_[id] = 1;
  if (has_direct_[id] || halves_[id].suppressed) return std::nullopt;

  const MajorityResult majority = count_majority(id, scratch);
  if (!majority.strict) return std::nullopt;
  if (!meets_fraction(majority.count, neighbors.size(), options_.f)) {
    return std::nullopt;
  }
  // "previous IP2AS(h) != AS_N": the half's own mapping, ignoring any
  // indirect override it carries — an indirect inference must not
  // preclude the direct one (§4.4.2, DESIGN.md §5).
  if (majority.key == base_group_[id]) return std::nullopt;

  return DirectProposal{id, majority.asn, majority.key,
                        static_cast<std::uint32_t>(majority.count),
                        static_cast<std::uint32_t>(neighbors.size())};
}

void Engine::make_direct(HalfId id, const DirectInference& inference) {
  held_.insert(id);
  mutate_mapping(id, [&](HalfState& s) {
    direct_index_[id] = static_cast<std::uint32_t>(directs_.size());
    directs_.push_back(inference);
    has_direct_[id] = 1;
    s.direct_override = inference.router_as;
  });
  // Its support is what the next remove step checks.
  remove_pending_.insert(id);
}

void Engine::commit_direct(const DirectProposal& proposal) {
  make_direct(proposal.id,
              DirectInference{proposal.asn, base_[proposal.id], proposal.key,
                              base_group_[proposal.id], proposal.votes,
                              proposal.neighbor_count, false});
  ++stats_.direct_made;
  apply_indirect(proposal.id);
}

template <typename T, typename Decide>
void Engine::decide_pass(bool full_sweep, HalfSet& pending,
                         std::vector<std::vector<T>>& buffers, Decide decide) {
  // A decision is a pure function of the frozen view and the half's own
  // pre-pass state: no mutation of this pass changes another half's. So
  // the pass decides first and its caller applies the decisions afterwards
  // in ascending id order (worker ranges are ascending and each buffer is
  // filled ascending): the sequential sweep's exact mutation sequence, so
  // last-writer effects, dirty marks, and stats are all identical.
  for (auto& buffer : buffers) buffer.clear();
  if (full_sweep) {
    pending.reset(halves_.size());
    const auto sweep = [&](unsigned worker, std::size_t begin,
                           std::size_t end) {
      for (std::size_t id = begin; id < end; ++id) {
        if (const auto decision =
                decide(static_cast<HalfId>(id), vote_scratch_[worker])) {
          buffers[worker].push_back(*decision);
        }
      }
    };
    const std::size_t limit = graph_.record_half_count();
    if (pool_) {
      pool_->for_ranges(limit, sweep);
    } else {
      sweep(0, 0, limit);
    }
    return;
  }
  // A half outside the set decides nothing. Every write that can change a
  // half's decision queues it, so it would repeat its last one, which
  // decided nothing or has been applied (after a commit or a demotion the
  // half decides nothing); a half the remove step has not yet judged holds
  // no direct inference, since every commit queues it. The set drains in
  // ascending id order, the order a full sweep visits halves in.
  pending.drain([&](HalfId id) {
    if (const auto decision = decide(id, vote_scratch_[0])) {
      buffers[0].push_back(*decision);
    }
  });
#ifndef NDEBUG
  // A full sweep must decide exactly this. Deciding writes only touched_,
  // which this run's first add sweep, a full one, already set.
  std::vector<T> full;
  for (HalfId id = 0; id < graph_.record_half_count(); ++id) {
    if (const auto decision = decide(id, vote_scratch_[0])) {
      full.push_back(*decision);
    }
  }
  if (full != buffers[0]) {
    throw InvariantError("engine pending set missed a half a full sweep "
                         "decides on");
  }
#endif
}

bool Engine::direct_pass(bool full_sweep) {
  decide_pass(full_sweep, add_pending_, direct_buffers_,
              [this](HalfId id, std::vector<VoteGroup>& scratch) {
                return evaluate_direct(id, scratch);
              });
  bool changed = false;
  for (const auto& buffer : direct_buffers_) {
    for (const DirectProposal& proposal : buffer) {
      commit_direct(proposal);
      changed = true;
    }
  }
  return changed;
}

bool Engine::resolve_dual_inferences() {
  // Both halves of the same interface carry direct inferences naming
  // different ASes: a third-party artifact; the forward inference wins
  // (§4.4.3). Interfaces without a base IP2AS mapping are left alone.
  bool changed = false;
  held_.for_each([&](HalfId fwd) {
    if (fwd % 2 != 0 || !has_direct_[fwd]) return;
    const HalfId bwd = fwd + 1;
    if (!has_direct_[bwd]) return;
    if (base_[fwd] == asdata::kUnknownAsn) return;
    if (direct(fwd).router_group == direct(bwd).router_group) {
      return;  // same AS both ways: load balancing/siblings; keep both
    }
    discard_direct(bwd);
    ++stats_.duals_resolved;
    changed = true;
  });
  return changed;
}

bool Engine::resolve_inverse_inferences() {
  // A forward inference {AS_N, AS_P} on interface a, and a backward
  // inference {AS_P, AS_N} on a member of a's N_F, cannot both be right
  // (§4.4.4). The forward one is topologically nearer to the monitors and
  // wins — unless the backward IH's other side also carries a direct
  // inference, in which case both are flagged uncertain.
  // Uncertainty is recomputed from scratch each resolution pass, so the
  // stats counter reflects the latest pass, not a running total.
  clear_flags(uncertain_list_, &HalfState::uncertain);
  stats_.uncertain_pairs = 0;

  bool changed = false;
  held_.for_each([&](HalfId fwd) {
    if (fwd % 2 != 0 || !has_direct_[fwd]) return;
    const DirectInference& fd = direct(fwd);
    // A forward half's neighbour span is exactly the backward halves of
    // its N_F members.
    for (HalfId nb : graph_.neighbor_ids(fwd)) {
      if (!has_direct_[nb]) continue;
      const DirectInference& bd = direct(nb);
      if (bd.router_group != fd.other_group ||
          bd.other_group != fd.router_group) {
        continue;  // not mirrored
      }
      const HalfId nb_other = graph_.other_side_id(nb);
      const bool other_has_direct =
          nb_other != graph::kInvalidHalfId && has_direct_[nb_other];
      if (other_has_direct) {
        // Neither IH is nearer: emit both as uncertain (§4.4.4).
        halves_[fwd].uncertain = true;
        halves_[nb].uncertain = true;
        uncertain_list_.push_back(fwd);
        uncertain_list_.push_back(nb);
        ++stats_.uncertain_pairs;
      } else {
        discard_direct(nb);
        ++stats_.inverses_resolved;
        changed = true;
      }
    }
  });
  return changed;
}

void Engine::add_step() {
  // Lifting a suppression can turn the half's verdict into a proposal.
  for (HalfId id : suppressed_list_) add_pending_.insert(id);
  clear_flags(suppressed_list_, &HalfState::suppressed);
  const bool first_step = stats_.iterations == 0;
  bool first_pass = true;
  bool changed = true;
  while (changed) {
    ++stats_.add_passes;
    freeze_view();
    changed = direct_pass(std::exchange(add_sweep_, false));
    if (first_step && first_pass) snapshot("Direct");
    if (options_.resolve_duals) changed |= resolve_dual_inferences();
    if (first_step && first_pass) snapshot("P2P");
    if (options_.resolve_inverses) changed |= resolve_inverse_inferences();
    if (first_step && first_pass) snapshot("Inverse");
    first_pass = false;
  }
  if (first_step) snapshot("Add");
}

// ---------------------------------------------------------------------------
// Remove step (§4.5)
// ---------------------------------------------------------------------------

void Engine::demote_direct(HalfId id) {
  mutate_mapping(id, [&](HalfState& st) {
    has_direct_[id] = 0;
    st.uncertain = false;
    // Retain the mapping as an indirect inference associated with the
    // other side's direct inference (§4.5) — unless the half already
    // carries a live indirect association, which must not be clobbered
    // (it is a genuine propagation from the other side's own inference).
    const HalfId source = indirect_source_[id];
    const bool live_indirect =
        source != graph::kInvalidHalfId && has_direct_[source];
    if (!live_indirect) {
      st.indirect_override = st.direct_override;
      indirect_source_[id] = graph_.other_side_id(id);
    }
    st.direct_override.reset();
  });
  add_pending_.insert(id);  // it may earn a direct inference again
  ++stats_.demoted_in_remove_step;
}

bool Engine::lost_support(HalfId id, std::vector<VoteGroup>& scratch) const {
  if (!has_direct_[id]) return false;
  const DirectInference& inference = direct(id);
  const auto neighbors = graph_.neighbor_ids(id);

  bool supported = false;
  if (inference.from_stub_heuristic) {
    // Stub inferences are produced after the main loop; if one is ever
    // present during a remove step, judge it by its single neighbour.
    supported = !neighbors.empty();
  } else if (options_.remove_rule == RemoveRule::kMajority) {
    supported = 2 * group_count(id, inference.router_group) > neighbors.size();
  } else {
    const MajorityResult majority = count_majority(id, scratch);
    supported = majority.strict && majority.key == inference.router_group &&
                meets_fraction(majority.count, neighbors.size(), options_.f);
  }
  return !supported;
}

void Engine::demote_pass(bool full_sweep) {
  // Demotion order matters: demote_direct's liveness check reads the
  // indirect source's (possibly just-demoted) state.
  decide_pass(full_sweep, remove_pending_, demote_buffers_,
              [this](HalfId id, std::vector<VoteGroup>& scratch)
                  -> std::optional<HalfId> {
                if (lost_support(id, scratch)) return id;
                return std::nullopt;
              });
  for (const auto& buffer : demote_buffers_) {
    for (HalfId id : buffer) demote_direct(id);
  }
}

void Engine::remove_step() {
  bool discarded = true;
  while (discarded) {
    discarded = false;
    freeze_view();
    // Pass 1: demote unsupported direct inferences to indirect, retaining
    // their mapping update.
    demote_pass(std::exchange(remove_sweep_, false));
    // Pass 2: discard indirect inferences whose associated direct
    // inference is gone, along with their IP2AS updates.
    held_.for_each([&](HalfId id) {
      const HalfId source = indirect_source_[id];
      if (source == graph::kInvalidHalfId || has_direct_[source]) return;
      discard_indirect(id);
      ++stats_.removed_in_remove_step;
      discarded = true;
    });
  }
}

// ---------------------------------------------------------------------------
// Stub heuristic (§4.8)
// ---------------------------------------------------------------------------

void Engine::stub_step() {
  if (!options_.stub_heuristic) return;
  freeze_view();
  const std::size_t n = graph_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const HalfId h_f = static_cast<HalfId>(2 * i);
    const HalfId h_b = h_f + 1;
    const auto forward = graph_.neighbor_ids(h_f);
    if (forward.size() != 1) continue;
    const HalfId n_b = forward[0];  // {neighbour, kBackward}

    auto has_inference = [&](HalfId id) {
      if (has_direct_[id]) return true;
      const HalfId source = indirect_source_[id];
      return source != graph::kInvalidHalfId && has_direct_[source] != 0;
    };
    if (has_inference(h_b) || has_inference(n_b) || has_inference(h_f)) {
      continue;
    }

    const asdata::Asn as_h = view_[h_f];
    const asdata::Asn as_n = view_[n_b];
    if (as_h == asdata::kUnknownAsn || as_n == asdata::kUnknownAsn) continue;
    if (view_group_[h_f] == view_group_[n_b]) continue;
    if (!rels_.is_stub(as_n)) continue;  // providers are never stubs, which
                                         // also defuses third-party replies
    touched_[h_f] = 1;
    make_direct(h_f, DirectInference{as_n, as_h, view_group_[n_b],
                                     view_group_[h_f], /*votes=*/1,
                                     /*neighbor_count=*/1,
                                     /*from_stub_heuristic=*/true});
    ++stats_.stub_inferences;
    apply_indirect(h_f);  // "Mark an indirect inference for h'_b"
  }
}

// ---------------------------------------------------------------------------
// Output assembly
// ---------------------------------------------------------------------------

std::vector<Inference> Engine::collect(bool confident) const {
  std::vector<Inference> out;
  const auto visit = [&](HalfId id) {
    if (has_direct_[id]) {
      const HalfState& st = halves_[id];
      if (st.uncertain == confident) return;
      const DirectInference& inference = direct(id);
      out.push_back(Inference{
          graph_.half_at(id), inference.router_as, inference.other_as,
          inference.from_stub_heuristic ? InferenceKind::kStub
                                        : InferenceKind::kDirect,
          st.uncertain, inference.votes, inference.neighbor_count});
      return;
    }
    const HalfId source_id = indirect_source_[id];
    if (source_id == graph::kInvalidHalfId || !confident) return;
    if (!has_direct_[source_id] || halves_[source_id].uncertain) return;
    // The other side of a link shares its AS pair with the direct
    // inference, with the roles mirrored (§4.4.2).
    const DirectInference& source = direct(source_id);
    out.push_back(Inference{graph_.half_at(id), source.other_as,
                            source.router_as, InferenceKind::kIndirect, false,
                            source.votes, source.neighbor_count});
  };
  const std::size_t records = graph_.record_half_count();
  std::size_t record_entries = 0;
  held_.for_each([&](HalfId id) {
    visit(id);
    if (id < records) record_entries = out.size();
  });
  merge_runs(out, record_entries, [](const Inference& i) { return i.half; });
  return out;
}

std::vector<std::pair<graph::InterfaceHalf, asdata::Asn>>
Engine::final_mappings() const {
  std::vector<std::pair<graph::InterfaceHalf, asdata::Asn>> out;
  const std::size_t records = graph_.record_half_count();
  std::size_t record_entries = 0;
  held_.for_each([&](HalfId id) {
    // The override slots are set exactly while the slabs say so.
    if (has_direct_[id]) {
      out.emplace_back(graph_.half_at(id), *halves_[id].direct_override);
    } else if (indirect_source_[id] != graph::kInvalidHalfId) {
      out.emplace_back(graph_.half_at(id), *halves_[id].indirect_override);
    }
    if (id < records) record_entries = out.size();
  });
  merge_runs(out, record_entries, [](const auto& entry) { return entry.first; });
  return out;
}

std::string Engine::state_signature() const {
  // Canonical serialization of everything that determines future evolution
  // (votes/neighbour counts are output-only and deliberately excluded, as
  // is the suppressed flag, which every add step clears before reading).
  // Dense id order makes the encoding canonical. Every touched half is
  // covered, even when its state is currently empty — a half that gained
  // and then lost an inference distinguishes this iteration from one where
  // it was never considered. A half that never held an inference has empty
  // state (an uncertain flag goes only with a direct inference).
  //
  // Written into one buffer of the exact size: 5 bytes per touched half
  // (id, mask); 12 more while it holds a direct inference (AS_N, the
  // previous AS, the direct override) and 8 while it carries an indirect
  // one (the source, the indirect override). The override slots are set
  // exactly while the slabs say so.
  std::size_t size = 0;
  for (const std::uint8_t flag : touched_) size += 5u * flag;
  held_.for_each([&](HalfId id) {
    if (!touched_[id]) return;
    if (has_direct_[id]) size += 12;
    if (indirect_source_[id] != graph::kInvalidHalfId) size += 8;
  });
  std::string sig(size, '\0');
  char* out = sig.data();
  const auto put32 = [&out](std::uint32_t value) {
    std::memcpy(out, &value, sizeof(value));
    out += sizeof(value);
  };
  const std::size_t halves = halves_.size();
  for (std::size_t id = 0; id < halves; ++id) {
    if (!touched_[id]) continue;
    put32(static_cast<std::uint32_t>(id));
    if (!held_.contains(static_cast<HalfId>(id))) {
      *out++ = 0;
      continue;
    }
    const HalfState& st = halves_[id];
    const auto half = static_cast<HalfId>(id);
    const bool holds_direct = has_direct_[id] != 0;
    const HalfId source = indirect_source_[id];
    const bool indirect = source != graph::kInvalidHalfId;
    std::uint8_t mask = 0;
    if (holds_direct) mask |= 0x01 | 0x08;  // the inference and its override
    if (holds_direct && direct(half).from_stub_heuristic) mask |= 0x02;
    if (indirect) mask |= 0x04 | 0x10;
    if (st.uncertain) mask |= 0x20;
    *out++ = static_cast<char>(mask);
    if (holds_direct) {
      put32(direct(half).router_as);
      put32(direct(half).other_as);
    }
    if (indirect) put32(source);
    if (holds_direct) put32(direct(half).router_as);  // the direct override
    if (indirect) put32(*st.indirect_override);
  }
  return sig;
}

void Engine::snapshot(const std::string& label) {
  if (!options_.capture_snapshots) return;
  snapshots_.push_back(Snapshot{label, collect(/*confident=*/true)});
}

void Engine::count_divergent_other_sides() {
  // Direct inferences on both endpoints of a link naming different AS
  // pairs (§4.4.3). Counted once per link, keyed by the lower address.
  stats_.divergent_other_sides = 0;
  const auto& records = graph_.interfaces();
  auto pair_of = [&](HalfId first)
      -> std::optional<std::pair<std::uint64_t, std::uint64_t>> {
    for (HalfId id : {first, static_cast<HalfId>(first + 1)}) {
      if (has_direct_[id]) {
        std::uint64_t a = direct(id).router_group;
        std::uint64_t b = direct(id).other_group;
        if (b < a) std::swap(a, b);
        return std::make_pair(a, b);
      }
    }
    return std::nullopt;
  };
  held_.for_each([&](HalfId id) {
    // An interface without a direct inference has no pair to compare;
    // visit each other one once, at its first half that holds one.
    if (!has_direct_[id] || (id % 2 != 0 && has_direct_[id - 1])) return;
    const HalfId fwd = id & ~1u;
    const std::size_t i = fwd / 2;
    const net::Ipv4Address other = records[i].other_side.address;
    if (!(records[i].address < other)) return;
    if (base_[fwd] == asdata::kUnknownAsn) return;
    const HalfId other_fwd = graph_.other_side_id(fwd) & ~1u;
    const auto mine = pair_of(fwd);
    const auto theirs = pair_of(other_fwd);
    if (mine && theirs && *mine != *theirs) ++stats_.divergent_other_sides;
  });
}

Result Engine::run() {
  // No control callback → the run cannot stop early, so the outcome is
  // always complete.
  return std::move(*run_controlled({}).result);
}

RunOutcome Engine::run_controlled(const RunControl& control) {
  reset_state();

  bool skip_first_add = false;
  if (control.resume_state != nullptr) {
    MAPIT_ENSURE(!options_.capture_snapshots,
                 "cannot resume with capture_snapshots: per-stage snapshots "
                 "from before the checkpoint are not recoverable");
    restore_state(*control.resume_state);
    // A kAfterAddStep checkpoint already ran this iteration's add step; the
    // resumed run re-enters the loop at its remove step. Either way the
    // next add and remove steps open with full sweeps, so the (unsaved)
    // pending sets being empty cannot change anything.
    skip_first_add = control.resume_boundary == RunBoundary::kAfterAddStep;
  }

  RunOutcome outcome;
  auto stopped = [&](RunBoundary boundary) {
    outcome.stopped_at = boundary;
    outcome.iterations_done = stats_.iterations;
    return outcome;
  };

  for (int i = stats_.iterations; i < options_.max_iterations; ++i) {
    if (skip_first_add) {
      skip_first_add = false;
    } else {
      add_step();
      if (control.on_boundary &&
          !control.on_boundary(RunBoundary::kAfterAddStep,
                               stats_.iterations)) {
        return stopped(RunBoundary::kAfterAddStep);
      }
    }
    remove_step();
    ++stats_.iterations;
    snapshot("Iter " + std::to_string(stats_.iterations));
    // Convergence = an end-of-remove state repeats (§4.6). The tracker
    // verifies byte equality on every hash hit, so a 64-bit collision
    // cannot fake convergence.
    std::string signature = state_signature();
    const std::uint64_t hash = std::hash<std::string>{}(signature);
    if (tracker_.seen_before(hash, std::move(signature))) {
      stats_.converged = true;
      break;
    }
    if (control.on_boundary &&
        !control.on_boundary(RunBoundary::kAfterIteration,
                             stats_.iterations)) {
      return stopped(RunBoundary::kAfterIteration);
    }
  }
  stub_step();
  snapshot("Stub");
  count_divergent_other_sides();

  Result result;
  result.inferences = collect(/*confident=*/true);
  result.uncertain = collect(/*confident=*/false);
  result.final_mappings = final_mappings();
  result.stats = stats_;
  result.snapshots = std::move(snapshots_);
  outcome.result = std::move(result);
  outcome.iterations_done = stats_.iterations;
  return outcome;
}

// ---------------------------------------------------------------------------
// Resumable state (core/checkpoint.h wraps these blobs in a CRC'd file)
// ---------------------------------------------------------------------------

namespace {

// save_state entry mask bits. Unlike state_signature(), the blob keeps the
// output-only fields (votes, neighbour counts, uncertain, suppressed) so a
// resumed run reproduces inference output byte-for-byte, not merely the
// same future evolution.
constexpr std::uint8_t kMaskDirect = 0x01;
constexpr std::uint8_t kMaskStub = 0x02;
constexpr std::uint8_t kMaskIndirectSource = 0x04;
constexpr std::uint8_t kMaskDirectOverride = 0x08;
constexpr std::uint8_t kMaskIndirectOverride = 0x10;
constexpr std::uint8_t kMaskUncertain = 0x20;
constexpr std::uint8_t kMaskSuppressed = 0x40;
constexpr std::uint8_t kMaskTouched = 0x80;

constexpr std::uint32_t kStateBlobVersion = 1;

}  // namespace

std::string Engine::save_state() const {
  std::string blob;
  wire::append_u32(blob, kStateBlobVersion);
  wire::append_u64(blob, halves_.size());

  wire::append_u32(blob, static_cast<std::uint32_t>(stats_.iterations));
  wire::append_u32(blob, static_cast<std::uint32_t>(stats_.add_passes));
  wire::append_u64(blob, stats_.direct_made);
  wire::append_u64(blob, stats_.duals_resolved);
  wire::append_u64(blob, stats_.inverses_resolved);
  wire::append_u64(blob, stats_.uncertain_pairs);
  wire::append_u64(blob, stats_.divergent_other_sides);
  wire::append_u64(blob, stats_.demoted_in_remove_step);
  wire::append_u64(blob, stats_.removed_in_remove_step);
  wire::append_u64(blob, stats_.stub_inferences);
  blob.push_back(stats_.converged ? 1 : 0);

  // Sparse per-half entries in ascending id order (canonical). A half is
  // recorded when it ever held state this run; empty-but-touched halves
  // matter because the convergence signature covers exactly the touched
  // set.
  const std::size_t halves = halves_.size();
  std::uint64_t entries = 0;
  auto entry_mask = [this](std::size_t id) {
    const HalfState& st = halves_[id];
    std::uint8_t mask = 0;
    if (has_direct_[id]) {
      mask |= kMaskDirect;
      if (direct(static_cast<HalfId>(id)).from_stub_heuristic) {
        mask |= kMaskStub;
      }
    }
    if (indirect_source_[id] != graph::kInvalidHalfId) {
      mask |= kMaskIndirectSource;
    }
    if (st.direct_override) mask |= kMaskDirectOverride;
    if (st.indirect_override) mask |= kMaskIndirectOverride;
    if (st.uncertain) mask |= kMaskUncertain;
    if (st.suppressed) mask |= kMaskSuppressed;
    if (touched_[id]) mask |= kMaskTouched;
    return mask;
  };
  for (std::size_t id = 0; id < halves; ++id) {
    if (entry_mask(id) != 0) ++entries;
  }
  wire::append_u64(blob, entries);
  for (std::size_t id = 0; id < halves; ++id) {
    const std::uint8_t mask = entry_mask(id);
    if (mask == 0) continue;
    const HalfState& st = halves_[id];
    wire::append_u32(blob, static_cast<std::uint32_t>(id));
    blob.push_back(static_cast<char>(mask));
    if (mask & kMaskDirect) {
      const DirectInference& inference = direct(static_cast<HalfId>(id));
      wire::append_u32(blob, inference.router_as);
      wire::append_u32(blob, inference.other_as);
      wire::append_u32(blob, inference.votes);
      wire::append_u32(blob, inference.neighbor_count);
    }
    if (mask & kMaskIndirectSource) {
      wire::append_u32(blob, indirect_source_[id]);
    }
    if (st.direct_override) wire::append_u32(blob, *st.direct_override);
    if (st.indirect_override) wire::append_u32(blob, *st.indirect_override);
  }

  // Convergence tracker, in insertion order; hashes are recomputed at
  // restore time, so the blob never depends on std::hash stability.
  const std::vector<std::string>& states = tracker_.states();
  wire::append_u32(blob, static_cast<std::uint32_t>(states.size()));
  for (const std::string& state : states) {
    wire::append_u64(blob, state.size());
    blob.append(state);
  }
  return blob;
}

void Engine::restore_state(const std::string& blob) {
  wire::Cursor cursor(blob, "engine state blob");
  const std::uint32_t version = cursor.read_u32();
  if (version != kStateBlobVersion) {
    throw CheckpointError("unsupported engine state version " +
                          std::to_string(version));
  }
  const std::uint64_t half_count = cursor.read_u64();
  if (half_count != halves_.size()) {
    throw CheckpointError(
        "engine state half count does not match this graph (checkpoint is "
        "from different inputs)");
  }

  EngineStats stats;
  stats.iterations = static_cast<int>(cursor.read_u32());
  stats.add_passes = static_cast<int>(cursor.read_u32());
  stats.direct_made = cursor.read_u64();
  stats.duals_resolved = cursor.read_u64();
  stats.inverses_resolved = cursor.read_u64();
  stats.uncertain_pairs = cursor.read_u64();
  stats.divergent_other_sides = cursor.read_u64();
  stats.demoted_in_remove_step = cursor.read_u64();
  stats.removed_in_remove_step = cursor.read_u64();
  stats.stub_inferences = cursor.read_u64();
  stats.converged = cursor.read_u8() != 0;
  if (stats.iterations < 0 || stats.add_passes < 0) {
    throw CheckpointError("engine state counters out of range");
  }

  const std::uint64_t entries = cursor.read_u64();
  std::int64_t previous_id = -1;
  for (std::uint64_t e = 0; e < entries; ++e) {
    const std::uint32_t id = cursor.read_u32();
    if (id >= half_count || static_cast<std::int64_t>(id) <= previous_id) {
      throw CheckpointError("engine state entries malformed (id order)");
    }
    previous_id = id;
    const std::uint8_t mask = cursor.read_u8();
    // A saved state sets each override exactly with its inference (the
    // engine's slabs rely on it), and the stub and uncertain flags only on
    // a direct one.
    const auto has = [mask](std::uint8_t bit) { return (mask & bit) != 0; };
    if ((has(kMaskStub) && !has(kMaskDirect)) ||
        (has(kMaskUncertain) && !has(kMaskDirect)) ||
        has(kMaskDirect) != has(kMaskDirectOverride) ||
        has(kMaskIndirectSource) != has(kMaskIndirectOverride)) {
      throw CheckpointError("engine state entry flags inconsistent");
    }
    if (has(kMaskDirect)) {
      // Only a record half has the neighbours a direct inference needs;
      // the scans for inferences rely on it.
      if (id >= graph_.record_half_count()) {
        throw CheckpointError("engine state direct inference on a phantom");
      }
      // The group keys are not in the blob: they are the two ASes' keys,
      // as at commit.
      DirectInference inference;
      inference.router_as = cursor.read_u32();
      inference.other_as = cursor.read_u32();
      inference.router_group = group_key(inference.router_as);
      inference.other_group = group_key(inference.other_as);
      inference.from_stub_heuristic = has(kMaskStub);
      inference.votes = cursor.read_u32();
      inference.neighbor_count = cursor.read_u32();
      direct_index_[id] = static_cast<std::uint32_t>(directs_.size());
      directs_.push_back(inference);
    }
    HalfId source = graph::kInvalidHalfId;
    if (has(kMaskIndirectSource)) {
      source = cursor.read_u32();
      if (source >= half_count) {
        throw CheckpointError("engine state indirect source out of range");
      }
    }
    HalfState st;
    if (has(kMaskDirectOverride)) {
      st.direct_override = cursor.read_u32();
      if (*st.direct_override != direct(id).router_as) {
        throw CheckpointError("engine state direct override is not AS_N");
      }
    }
    if (has(kMaskIndirectOverride)) st.indirect_override = cursor.read_u32();
    st.uncertain = has(kMaskUncertain);
    st.suppressed = has(kMaskSuppressed);
    halves_[id] = st;
    has_direct_[id] = has(kMaskDirect) ? 1 : 0;
    indirect_source_[id] = source;
    if (has(kMaskDirect) || has(kMaskIndirectSource)) held_.insert(id);
    if (st.uncertain) uncertain_list_.push_back(id);
    if (st.suppressed) suppressed_list_.push_back(id);
    touched_[id] = has(kMaskTouched) ? 1 : 0;
  }

  const std::uint32_t tracked = cursor.read_u32();
  ConvergenceTracker tracker;
  for (std::uint32_t t = 0; t < tracked; ++t) {
    const std::uint64_t size = cursor.read_u64();
    std::string state(cursor.read_bytes(size));
    const std::uint64_t hash = std::hash<std::string>{}(state);
    if (tracker.seen_before(hash, std::move(state))) {
      throw CheckpointError("engine state tracker has duplicate states");
    }
  }
  if (!cursor.exhausted()) {
    throw CheckpointError("engine state blob has trailing bytes");
  }

  // Commit only after the whole blob parsed cleanly (halves_/touched_ are
  // already written, but a throw above aborts the resume entirely — the
  // caller never runs on a half-restored engine).
  stats_ = stats;
  tracker_ = std::move(tracker);
  // The restored overrides bypassed mutate_mapping, so stale_ knows none
  // of them: transcribe every half once.
  const std::size_t halves = halves_.size();
  for (std::size_t id = 0; id < halves; ++id) {
    std::tie(view_[id], view_group_[id]) = view_entry(static_cast<HalfId>(id));
  }
  // Nor do the pending sets: the next add and remove steps sweep every
  // half instead.
  add_sweep_ = true;
  remove_sweep_ = true;
}

const Inference* Result::find(const graph::InterfaceHalf& half) const {
  const auto it = std::lower_bound(
      inferences.begin(), inferences.end(), half,
      [](const Inference& a, const graph::InterfaceHalf& h) {
        return a.half < h;
      });
  return it != inferences.end() && it->half == half ? &*it : nullptr;
}

std::optional<asdata::Asn> Result::final_mapping(
    const graph::InterfaceHalf& half) const {
  const auto it = std::lower_bound(
      final_mappings.begin(), final_mappings.end(), half,
      [](const auto& entry, const graph::InterfaceHalf& h) {
        return entry.first < h;
      });
  if (it == final_mappings.end() || it->first != half) return std::nullopt;
  return it->second;
}

std::vector<const Inference*> Result::find_address(
    net::Ipv4Address address) const {
  std::vector<const Inference*> out;
  for (const Inference& inference : inferences) {
    if (inference.half.address == address) out.push_back(&inference);
  }
  return out;
}

Result run_mapit(const graph::InterfaceGraph& graph, const bgp::Ip2As& ip2as,
                 const asdata::As2Org& orgs,
                 const asdata::AsRelationships& rels, const Options& options) {
  Engine engine(graph, ip2as, orgs, rels, options);
  return engine.run();
}

}  // namespace mapit::core
