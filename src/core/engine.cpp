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
  directs_.clear();
  direct_index_.assign(halves, kNoDirect);
  indirect_as_.assign(halves, asdata::kUnknownAsn);
  held_.reset(halves);
  busy_.reset(halves);
  for (HalfId id = 0; id < graph_.record_half_count(); ++id) {
    if (graph_.neighbor_ids(id).size() >= 2) busy_.insert(id);
  }
  suppressed_.reset(halves);
  uncertain_.reset(halves);
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
  if (holds_direct(id)) return direct(id).router_as;
  if (indirect_as_[id] != asdata::kUnknownAsn) return indirect_as_[id];
  return base_[id];
}

std::pair<asdata::Asn, std::uint64_t> Engine::view_entry(HalfId id) const {
  if (holds_direct(id)) return {direct(id).router_as, direct(id).router_group};
  if (indirect_as_[id] != asdata::kUnknownAsn) {
    return {indirect_as_[id], group_key(indirect_as_[id])};
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
  for (HalfId id = 0; id < graph_.half_count(); ++id) {
    // Every write site that makes a direct or indirect inference inserts
    // the half in held_, and a direct inference carries its ASes' group
    // keys.
    const bool holds = holds_direct(id);
    if (((holds || indirect_as_[id] != asdata::kUnknownAsn) &&
         !held_.contains(id)) ||
        (holds &&
         (direct(id).router_group != group_key(direct(id).router_as) ||
          direct(id).other_group != group_key(direct(id).other_as)))) {
      throw InvariantError("engine held set or group keys disagree with the "
                           "state of half " + std::to_string(id));
    }
    const asdata::Asn asn = effective_as(id);
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
    if (holds_direct(dependent)) {
      remove_pending_.insert(dependent);
    } else {
      add_pending_.insert(dependent);
    }
  }
}

template <typename Fn>
void Engine::mutate_mapping(HalfId id, Fn&& fn) {
  const asdata::Asn before = effective_as(id);
  fn();
  if (effective_as(id) != before) {
    mark_dependents_dirty(id);
    stale_.push_back(id);
  }
}

// ---------------------------------------------------------------------------
// Bookkeeping
// ---------------------------------------------------------------------------

void Engine::discard_direct(HalfId id) {
  if (!holds_direct(id)) return;
  mutate_mapping(id, [&] { direct_index_[id] = kNoDirect; });
  uncertain_.erase(id);
  // Until the next add step, whose opening queues the half for add
  // evaluation when it lifts the suppression.
  suppressed_.insert(id);
  // The indirect inference propagated to the other side dies with its
  // source (§4.4.2); the other side's indirect inference, if any, has this
  // half as its source.
  const HalfId other = graph_.other_side_id(id);
  if (other != graph::kInvalidHalfId &&
      indirect_as_[other] != asdata::kUnknownAsn) {
    discard_indirect(other);
  }
}

void Engine::discard_indirect(HalfId id) {
  mutate_mapping(id, [&] { indirect_as_[id] = asdata::kUnknownAsn; });
}

// ---------------------------------------------------------------------------
// Add step (§4.4)
// ---------------------------------------------------------------------------

void Engine::apply_indirect(HalfId source) {
  if (!options_.update_other_sides) return;
  // IXP LANs are multipoint: the /30-/31 other-side relation does not hold
  // there (footnote 7).
  if (options_.ixp_aware && ip2as_.is_ixp(graph_.address_at(source))) return;
  if (!holds_direct(source)) return;
  const HalfId other = graph_.other_side_id(source);
  if (other == graph::kInvalidHalfId) return;
  if (net::is_special_purpose(graph_.address_at(other))) return;
  const asdata::Asn router = direct(source).router_as;
  held_.insert(other);
  mutate_mapping(other, [&] { indirect_as_[other] = router; });
}

std::optional<Engine::DirectProposal> Engine::evaluate_direct(
    HalfId id, std::vector<VoteGroup>& scratch) const {
  const auto neighbors = graph_.neighbor_ids(id);
  if (neighbors.size() < 2) return std::nullopt;  // §4.3's two-address floor
  if (holds_direct(id) || suppressed_.contains(id)) return std::nullopt;

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
  mutate_mapping(id, [&] {
    direct_index_[id] = static_cast<std::uint32_t>(directs_.size());
    directs_.push_back(inference);
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
    pending.reset(graph_.half_count());
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
  // A full sweep must decide exactly this; deciding writes nothing.
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
    if (fwd % 2 != 0 || !holds_direct(fwd)) return;
    const HalfId bwd = fwd + 1;
    if (!holds_direct(bwd)) return;
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
  uncertain_.reset(graph_.half_count());
  stats_.uncertain_pairs = 0;

  bool changed = false;
  held_.for_each([&](HalfId fwd) {
    if (fwd % 2 != 0 || !holds_direct(fwd)) return;
    const DirectInference& fd = direct(fwd);
    // A forward half's neighbour span is exactly the backward halves of
    // its N_F members.
    for (HalfId nb : graph_.neighbor_ids(fwd)) {
      if (!holds_direct(nb)) continue;
      const DirectInference& bd = direct(nb);
      if (bd.router_group != fd.other_group ||
          bd.other_group != fd.router_group) {
        continue;  // not mirrored
      }
      const HalfId nb_other = graph_.other_side_id(nb);
      const bool other_has_direct =
          nb_other != graph::kInvalidHalfId && holds_direct(nb_other);
      if (other_has_direct) {
        // Neither IH is nearer: emit both as uncertain (§4.4.4).
        uncertain_.insert(fwd);
        uncertain_.insert(nb);
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
  suppressed_.drain([this](HalfId id) { add_pending_.insert(id); });
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
  mutate_mapping(id, [&] {
    // Retain the mapping as an indirect inference associated with the
    // other side's direct inference (§4.5) — unless the half already
    // carries a live indirect association, which must not be clobbered
    // (it is a genuine propagation from the other side's own inference).
    if (!live_indirect(id)) indirect_as_[id] = direct(id).router_as;
    direct_index_[id] = kNoDirect;
  });
  uncertain_.erase(id);
  add_pending_.insert(id);  // it may earn a direct inference again
  ++stats_.demoted_in_remove_step;
}

bool Engine::lost_support(HalfId id, std::vector<VoteGroup>& scratch) const {
  if (!holds_direct(id)) return false;
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
      if (indirect_as_[id] == asdata::kUnknownAsn || live_indirect(id)) {
        return;
      }
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
      return holds_direct(id) || live_indirect(id);
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
    if (holds_direct(id)) {
      const bool uncertain = uncertain_.contains(id);
      if (uncertain == confident) return;
      const DirectInference& inference = direct(id);
      out.push_back(Inference{
          graph_.half_at(id), inference.router_as, inference.other_as,
          inference.from_stub_heuristic ? InferenceKind::kStub
                                        : InferenceKind::kDirect,
          uncertain, inference.votes, inference.neighbor_count});
      return;
    }
    if (!confident || !live_indirect(id)) return;
    const HalfId source_id = graph_.other_side_id(id);
    if (uncertain_.contains(source_id)) return;
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
    if (holds_direct(id) || indirect_as_[id] != asdata::kUnknownAsn) {
      out.emplace_back(graph_.half_at(id), effective_as(id));
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
  // previous AS, the direct override, which is AS_N) and 8 while it carries
  // an indirect one (the source, which is its other side, and the indirect
  // AS).
  std::size_t size = 0;
  for (std::size_t word = 0; word < held_.words.size(); ++word) {
    size += 5u * static_cast<unsigned>(
                     std::popcount(busy_.words[word] | held_.words[word]));
  }
  held_.for_each([&](HalfId id) {
    if (holds_direct(id)) size += 12;
    if (indirect_as_[id] != asdata::kUnknownAsn) size += 8;
  });
  std::string sig(size, '\0');
  char* out = sig.data();
  const auto put32 = [&out](std::uint32_t value) {
    std::memcpy(out, &value, sizeof(value));
    out += sizeof(value);
  };
  // The touched halves, ascending: busy_ ∪ held_, a word at a time.
  for (std::size_t word = 0; word < held_.words.size(); ++word) {
    const std::uint64_t held = held_.words[word];
    for (std::uint64_t bits = busy_.words[word] | held; bits != 0;
         bits &= bits - 1) {
      const auto bit = static_cast<unsigned>(std::countr_zero(bits));
      const auto id = static_cast<HalfId>(word * 64 + bit);
      put32(id);
      if (((held >> bit) & 1) == 0) {
        *out++ = 0;
        continue;
      }
      const bool holds = holds_direct(id);
      const bool indirect = indirect_as_[id] != asdata::kUnknownAsn;
      std::uint8_t mask = 0;
      if (holds) mask |= 0x01 | 0x08;  // the inference and its override
      if (holds && direct(id).from_stub_heuristic) mask |= 0x02;
      if (indirect) mask |= 0x04 | 0x10;
      if (uncertain_.contains(id)) mask |= 0x20;
      *out++ = static_cast<char>(mask);
      if (holds) {
        put32(direct(id).router_as);
        put32(direct(id).other_as);
      }
      if (indirect) put32(graph_.other_side_id(id));
      if (holds) put32(direct(id).router_as);  // the direct override
      if (indirect) put32(indirect_as_[id]);
    }
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
      if (holds_direct(id)) {
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
    if (!holds_direct(id) || (id % 2 != 0 && holds_direct(id - 1))) return;
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
  const auto halves = static_cast<HalfId>(graph_.half_count());
  std::string blob;
  wire::append_u32(blob, kStateBlobVersion);
  wire::append_u64(blob, halves);

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
  // set. The overrides and the indirect source are written as the records
  // imply them: AS_N, the indirect AS and the half's other side.
  std::uint64_t entries = 0;
  auto entry_mask = [this](HalfId id) {
    std::uint8_t mask = 0;
    if (holds_direct(id)) {
      mask |= kMaskDirect | kMaskDirectOverride;
      if (direct(id).from_stub_heuristic) mask |= kMaskStub;
    }
    if (indirect_as_[id] != asdata::kUnknownAsn) {
      mask |= kMaskIndirectSource | kMaskIndirectOverride;
    }
    if (uncertain_.contains(id)) mask |= kMaskUncertain;
    if (suppressed_.contains(id)) mask |= kMaskSuppressed;
    if (touched(id)) mask |= kMaskTouched;
    return mask;
  };
  for (HalfId id = 0; id < halves; ++id) {
    if (entry_mask(id) != 0) ++entries;
  }
  wire::append_u64(blob, entries);
  for (HalfId id = 0; id < halves; ++id) {
    const std::uint8_t mask = entry_mask(id);
    if (mask == 0) continue;
    wire::append_u32(blob, id);
    blob.push_back(static_cast<char>(mask));
    if (mask & kMaskDirect) {
      const DirectInference& inference = direct(id);
      wire::append_u32(blob, inference.router_as);
      wire::append_u32(blob, inference.other_as);
      wire::append_u32(blob, inference.votes);
      wire::append_u32(blob, inference.neighbor_count);
    }
    if (mask & kMaskIndirectSource) {
      wire::append_u32(blob, graph_.other_side_id(id));
    }
    if (mask & kMaskDirectOverride) {
      wire::append_u32(blob, direct(id).router_as);
    }
    if (mask & kMaskIndirectOverride) wire::append_u32(blob, indirect_as_[id]);
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
  if (half_count != graph_.half_count()) {
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

  // Touched is derived (touched()), so the blob's touched bits must be
  // exactly what the restored records reproduce: set on every half with at
  // least two neighbours and on every half holding an inference.
  std::size_t busy_touched = 0;
  const std::uint64_t entries = cursor.read_u64();
  std::int64_t previous_id = -1;
  for (std::uint64_t e = 0; e < entries; ++e) {
    const std::uint32_t id = cursor.read_u32();
    if (id >= half_count || static_cast<std::int64_t>(id) <= previous_id) {
      throw CheckpointError("engine state entries malformed (id order)");
    }
    previous_id = id;
    const std::uint8_t mask = cursor.read_u8();
    // A saved state sets each override exactly with its inference, and the
    // stub and uncertain flags only on a direct one.
    const auto has = [mask](std::uint8_t bit) { return (mask & bit) != 0; };
    if ((has(kMaskStub) && !has(kMaskDirect)) ||
        (has(kMaskUncertain) && !has(kMaskDirect)) ||
        has(kMaskDirect) != has(kMaskDirectOverride) ||
        has(kMaskIndirectSource) != has(kMaskIndirectOverride)) {
      throw CheckpointError("engine state entry flags inconsistent");
    }
    const bool holds = has(kMaskDirect) || has(kMaskIndirectSource);
    const bool busy = busy_.contains(id);
    if ((holds || busy) && !has(kMaskTouched)) {
      throw CheckpointError("engine state touched flag missing");
    }
    busy_touched += busy ? 1u : 0u;
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
      if (inference.router_as == asdata::kUnknownAsn) {
        throw CheckpointError("engine state direct inference has no AS_N");
      }
      inference.router_group = group_key(inference.router_as);
      inference.other_group = group_key(inference.other_as);
      inference.from_stub_heuristic = has(kMaskStub);
      inference.votes = cursor.read_u32();
      inference.neighbor_count = cursor.read_u32();
      direct_index_[id] = static_cast<std::uint32_t>(directs_.size());
      directs_.push_back(inference);
    }
    if (has(kMaskIndirectSource)) {
      const std::uint32_t source = cursor.read_u32();
      if (source >= half_count) {
        throw CheckpointError("engine state indirect source out of range");
      }
      if (source != graph_.other_side_id(id)) {
        throw CheckpointError(
            "engine state indirect source is not the other side");
      }
    }
    if (has(kMaskDirectOverride) && cursor.read_u32() != direct(id).router_as) {
      throw CheckpointError("engine state direct override is not AS_N");
    }
    if (has(kMaskIndirectOverride)) {
      indirect_as_[id] = cursor.read_u32();
      if (indirect_as_[id] == asdata::kUnknownAsn) {
        throw CheckpointError("engine state indirect override is unknown");
      }
    }
    if (has(kMaskUncertain)) uncertain_.insert(id);
    if (has(kMaskSuppressed)) suppressed_.insert(id);
    // held_ is every half that has held an inference this run: those that
    // hold one now, and the touched halves with too few neighbours to be
    // touched otherwise, which held one earlier.
    if (holds || (has(kMaskTouched) && !busy)) held_.insert(id);
  }
  std::size_t busy_halves = 0;
  for (const std::uint64_t word : busy_.words) {
    busy_halves += static_cast<unsigned>(std::popcount(word));
  }
  if (busy_touched != busy_halves) {
    throw CheckpointError("engine state touched flag missing");
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

  // Commit only after the whole blob parsed cleanly (the per-half records
  // are already written, but a throw above aborts the resume entirely —
  // the caller never runs on a half-restored engine).
  stats_ = stats;
  tracker_ = std::move(tracker);
  // The restored records bypassed mutate_mapping, so stale_ knows none of
  // them: transcribe every half once.
  for (HalfId id = 0; id < half_count; ++id) {
    std::tie(view_[id], view_group_[id]) = view_entry(id);
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

Result run_mapit(const graph::InterfaceGraph& graph, const bgp::Ip2As& ip2as,
                 const asdata::As2Org& orgs,
                 const asdata::AsRelationships& rels, const Options& options) {
  Engine engine(graph, ip2as, orgs, rels, options);
  return engine.run();
}

}  // namespace mapit::core
