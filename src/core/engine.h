// The MAP-IT multipass inference engine (paper §4).
//
// Pipeline position: traces have been sanitized (trace/sanitize.h) and
// folded into an InterfaceGraph (graph/interface_graph.h); an Ip2As
// composite supplies base address-to-AS mappings. The engine then:
//
//   1. repeatedly ADDs inferences — direct neighbour-set-majority
//      inferences (§4.4.1), indirect other-side propagation (§4.4.2),
//      dual-inference and divergent-other-side resolution (§4.4.3), and
//      adjacent-inverse-inference resolution (§4.4.4) — until a full pass
//      makes no change;
//   2. REMOVEs inferences no longer supported by the refined per-half
//      IP2AS mappings (§4.5);
//   3. repeats 1-2 until the end-of-remove state repeats (§4.6);
//   4. finally applies the stub-AS heuristic (§4.8).
//
// All counting during a pass uses the mappings frozen at the end of the
// previous pass, making results independent of visit order (§4.4.5).
//
// State layout: every interface half carries a dense graph::HalfId
// (interface index * 2 + direction); all engine state lives in flat slabs
// and bitsets indexed by that id, so the hot loops are plain vector reads
// with no hashing. Each per-half fact has one record: the index of the
// direct inference a half holds, the AS of the indirect inference its other
// side gave it (the other-side relation is an involution, so the source of
// an indirect inference is always the half's other side), and the
// suppressed and uncertain bits. A half's add or remove verdict is a pure
// function of its own state and its neighbours' frozen mappings, so every
// write that can change a verdict queues the half in a pending set, one for
// add evaluation and one for remove evaluation; a step's passes evaluate
// only their set, in ascending id order, which keeps inference output
// identical to a full-recount engine. Only a fresh run's first add step and
// the two step openings after a resume sweep every half. Freezing the view
// is change-driven too: it re-transcribes only the halves whose effective
// mapping changed since the last freeze. The scans that look for inferences
// (dual and inverse resolution, the remove step's indirect discard, the
// output lists) walk a bitset of the halves that have held one this run,
// and a direct inference carries the sibling group keys of its two ASes, so
// none of them looks up an organization. See DESIGN.md "Dense engine state"
// for the invariants.
//
// Residency: an Engine may run many times over a graph that grows between
// runs (InterfaceGraph::fold, as `mapit ingest` does per publish). Each run
// sizes its slabs from the graph as it is then and starts from empty
// per-run state; only the thread pool, the buffers' capacity and the base
// IP2AS mappings of the addresses already seen carry over, the latter keyed
// by address because a fold shifts HalfIds.
//
// Threading: a full sweep evaluates candidates over disjoint HalfId ranges
// on Options::threads workers — counting reads only the frozen view
// (§4.4.5), and evaluation writes nothing — and commits the collected
// proposals sequentially in ascending id order. Output is byte-identical
// for every thread count; see DESIGN.md "Parallel sweeps".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asdata/as2org.h"
#include "asdata/asn.h"
#include "asdata/relationships.h"
#include "bgp/ip2as.h"
#include "core/convergence.h"
#include "core/inference.h"
#include "graph/interface_graph.h"
#include "parallel/thread_pool.h"

namespace mapit::core {

/// Rule used by the remove step to decide whether a direct inference is
/// still supported (DESIGN.md §5: the paper's prose and pseudocode differ).
enum class RemoveRule : std::uint8_t {
  kMajority,  ///< AS_N still accounts for more than half of N (§4.5 prose)
  kAddRule,   ///< the add-step criterion would still fire (Alg 3 comment)
};

struct Options {
  /// Minimum fraction of a neighbour set the dominating AS must reach
  /// (paper's f, §4.4.1; evaluated in §5.3).
  double f = 0.5;
  RemoveRule remove_rule = RemoveRule::kMajority;

  /// Ablation toggles (all true reproduces the paper's algorithm).
  bool sibling_grouping = true;       ///< group sibling ASes when counting
  bool update_other_sides = true;     ///< §4.4.2 indirect propagation
  bool ixp_aware = true;              ///< skip other-side updates in IXP LANs
  bool resolve_duals = true;          ///< §4.4.3 dual-inference fixing
  bool resolve_inverses = true;       ///< §4.4.4 inverse-inference fixing
  bool stub_heuristic = true;         ///< §4.8

  /// Capture per-stage inference snapshots (Fig 7 instrumentation).
  bool capture_snapshots = false;

  /// Safety bound on outer add/remove iterations (the paper's runs
  /// converge in 3).
  int max_iterations = 64;

  /// Worker threads for the full-sweep passes. 0 = one per hardware
  /// thread (the default); 1 = the exact single-threaded code path.
  /// Inference output is byte-identical for every value — the frozen-view
  /// counting of §4.4.5 has no cross-half data dependencies within a pass,
  /// and proposals are committed in ascending id order regardless of which
  /// worker produced them.
  unsigned threads = 0;
};

/// A labelled copy of the confident inference list at one pipeline stage.
struct Snapshot {
  std::string label;
  std::vector<Inference> inferences;
};

struct EngineStats {
  int iterations = 0;             ///< outer add/remove iterations executed
  int add_passes = 0;             ///< total direct-inference sweeps
  std::size_t direct_made = 0;    ///< direct inferences ever added
  std::size_t duals_resolved = 0;
  std::size_t inverses_resolved = 0;
  std::size_t uncertain_pairs = 0;
  std::size_t divergent_other_sides = 0;
  std::size_t demoted_in_remove_step = 0;  ///< direct -> indirect demotions
  std::size_t removed_in_remove_step = 0;  ///< indirect inferences discarded
  std::size_t stub_inferences = 0;
  bool converged = false;         ///< repeated state found within bounds

  friend bool operator==(const EngineStats&, const EngineStats&) = default;
};

/// The places inside Engine::run_controlled where execution may pause: the
/// engine's state at these points fully determines the remainder of the run
/// (a resumed run opens its next add and remove steps with full sweeps, so
/// the pending sets, which are not saved, are immaterial), which is what
/// makes checkpoint/resume byte-identical.
enum class RunBoundary : std::uint8_t {
  kAfterAddStep = 0,    ///< add step finished; the remove step runs next
  kAfterIteration = 1,  ///< remove step finished, state not yet repeated
};

/// Optional control surface for run_controlled. `on_boundary` is invoked at
/// every RunBoundary with the iterations completed so far; returning false
/// stops the run gracefully (the engine state is still intact, so the
/// caller can save_state() before or inside the callback). `resume_state`
/// restores a save_state() blob before running and continues from
/// `resume_boundary` instead of starting fresh.
struct RunControl {
  std::function<bool(RunBoundary boundary, int iterations_done)> on_boundary;
  const std::string* resume_state = nullptr;
  RunBoundary resume_boundary = RunBoundary::kAfterIteration;
};

struct Result {
  /// High-confidence inter-AS link interface inferences (direct + stub +
  /// surviving indirect), ordered by address then direction.
  std::vector<Inference> inferences;
  /// Uncertain inferences (§4.4.4's unresolvable inverse pairs).
  std::vector<Inference> uncertain;
  /// Final per-half IP2AS overrides at convergence: every interface half
  /// whose mapping the algorithm refined away from the BGP-derived origin,
  /// ordered by (address, direction).
  std::vector<std::pair<graph::InterfaceHalf, asdata::Asn>> final_mappings;
  EngineStats stats;
  std::vector<Snapshot> snapshots;

  /// Confident inference on the given half, if any.
  [[nodiscard]] const Inference* find(const graph::InterfaceHalf& half) const;
  /// Final mapping override of the given half, if any.
  [[nodiscard]] std::optional<asdata::Asn> final_mapping(
      const graph::InterfaceHalf& half) const;
};

/// What run_controlled came back with: a finished Result, or the boundary
/// at which the control callback stopped the run (state saved by the
/// caller; resume via RunControl::resume_state).
struct RunOutcome {
  std::optional<Result> result;  ///< engaged iff the run completed
  RunBoundary stopped_at = RunBoundary::kAfterIteration;
  int iterations_done = 0;
  [[nodiscard]] bool completed() const { return result.has_value(); }
};

class Engine {
 public:
  /// All referenced objects must outlive the engine. `ip2as`, `orgs` and
  /// `rels` must not change while it lives; `graph` may grow between runs
  /// (InterfaceGraph::fold). Construction allocates no per-half state:
  /// every run sizes its slabs from the graph as it is then.
  Engine(const graph::InterfaceGraph& graph, const bgp::Ip2As& ip2as,
         const asdata::As2Org& orgs, const asdata::AsRelationships& rels,
         Options options);

  /// Runs the full algorithm over the graph as it is now. Every call starts
  /// from empty per-run state, so its result equals a fresh engine's.
  [[nodiscard]] Result run();

  /// run() with pause/resume control. Checkpoint/resume invariant, pinned
  /// by tests: stopping at any boundary and resuming the saved state in a
  /// fresh engine (any thread count, same everything else) produces
  /// byte-identical inferences, stats, and final mappings to an
  /// uninterrupted run. Resume requires capture_snapshots to be off —
  /// per-stage snapshots from before the checkpoint are not recoverable.
  [[nodiscard]] RunOutcome run_controlled(const RunControl& control);

  /// Complete resumable engine state: per-half records, touch flags, stats,
  /// and the convergence tracker's recorded states — unlike
  /// state_signature(), which deliberately drops output-only fields. The
  /// blob is versioned and host-endian; core/checkpoint.h wraps it in a
  /// CRC-checked file with endianness pinned in the header. Only
  /// meaningful at a RunBoundary (inside on_boundary).
  [[nodiscard]] std::string save_state() const;

 private:
  using HalfId = graph::HalfId;

  /// A direct inference, with the sibling group keys of its two ASes taken
  /// when it is made, so the scans that compare inferences never look up an
  /// organization.
  struct DirectInference {
    asdata::Asn router_as = asdata::kUnknownAsn;  // AS_N
    asdata::Asn other_as = asdata::kUnknownAsn;   // previous IP2AS(h)
    std::uint64_t router_group = 0;    // group_key(router_as)
    std::uint64_t other_group = 0;     // group_key(other_as)
    std::uint32_t votes = 0;           // neighbours voting for AS_N
    std::uint32_t neighbor_count = 0;  // |N| at inference time
    bool from_stub_heuristic = false;
  };

  /// A set of halves, one bit per HalfId, walked in ascending id order.
  struct HalfSet {
    std::vector<std::uint64_t> words;

    void reset(std::size_t halves) { words.assign((halves + 63) / 64, 0); }
    void insert(HalfId id) { words[id / 64] |= std::uint64_t{1} << (id % 64); }
    void erase(HalfId id) {
      words[id / 64] &= ~(std::uint64_t{1} << (id % 64));
    }
    [[nodiscard]] bool contains(HalfId id) const {
      return ((words[id / 64] >> (id % 64)) & 1) != 0;
    }
    /// Calls fn(id) for every member, ascending. Each word is read before
    /// its members are visited, so fn may insert (a member it adds to a
    /// word already read is not visited).
    template <typename Fn>
    void for_each(Fn&& fn) const;
    /// for_each, emptying the set as it goes.
    template <typename Fn>
    void drain(Fn&& fn);
  };

  /// direct_index_ of a half that holds no direct inference.
  static constexpr std::uint32_t kNoDirect = 0xffffffffu;

  [[nodiscard]] bool holds_direct(HalfId id) const {
    return direct_index_[id] != kNoDirect;
  }
  /// The direct inference `id` holds; only while holds_direct(id).
  [[nodiscard]] const DirectInference& direct(HalfId id) const {
    return directs_[direct_index_[id]];
  }
  /// Whether `id` carries an indirect inference whose source, its other
  /// side, still holds the direct inference that gave it.
  [[nodiscard]] bool live_indirect(HalfId id) const {
    return indirect_as_[id] != asdata::kUnknownAsn &&
           holds_direct(graph_.other_side_id(id));
  }
  /// The halves the convergence signature and the blob's touched bit cover:
  /// every half the first add step's sweep evaluated (busy_) and every half
  /// that has held an inference. Valid at every run boundary, since a fresh
  /// run's first add step sweeps every record half.
  [[nodiscard]] bool touched(HalfId id) const {
    return busy_.contains(id) || held_.contains(id);
  }

  // --- mapping views -------------------------------------------------
  /// The effective mapping of a half right now (overrides, then base).
  [[nodiscard]] asdata::Asn effective_as(HalfId id) const;
  /// What the frozen view holds for `id` under the current state: its
  /// effective mapping and that mapping's sibling group key.
  [[nodiscard]] std::pair<asdata::Asn, std::uint64_t> view_entry(
      HalfId id) const;
  /// Brings view_ / view_group_ up to the current state (the per-pass
  /// mapping freeze of §4.4.5) by re-transcribing only the stale halves.
  /// Debug builds then check the result against a full transcription, and
  /// that held_ covers every half holding an inference and each direct
  /// inference's cached group keys (InvariantError on a mismatch).
  void freeze_view();

  // --- counting ------------------------------------------------------
  struct MajorityResult {
    asdata::Asn asn = asdata::kUnknownAsn;  // representative of the group
    std::uint64_t key = 0;                  // the group's sibling key
    std::size_t count = 0;                  // group's vote count
    bool strict = false;                    // strictly more than every other
  };
  /// Vote-group scratch for count_majority: groups in first-seen order,
  /// entries reused across calls to avoid reallocating the member lists.
  /// Each worker owns one instance (vote_scratch_), so counting can run
  /// concurrently over disjoint id ranges.
  struct VoteGroup {
    std::uint64_t key = 0;
    std::size_t count = 0;
    std::vector<std::pair<asdata::Asn, std::size_t>> members;
  };
  [[nodiscard]] MajorityResult count_majority(
      HalfId id, std::vector<VoteGroup>& scratch) const;
  /// Neighbours of `id` whose frozen mapping is in sibling group `key`.
  [[nodiscard]] std::size_t group_count(HalfId id, std::uint64_t key) const;
  [[nodiscard]] std::uint64_t group_key(asdata::Asn asn) const;

  // --- pending sets ----------------------------------------------------
  /// Queues every half whose majority depends on `id` (reverse adjacency
  /// walk): for add evaluation if it holds no direct inference, for remove
  /// evaluation if it does. Called whenever a half's effective mapping
  /// changes.
  void mark_dependents_dirty(HalfId id);
  /// Wraps a state mutation: records the effective mapping before, runs the
  /// mutation, and if the mapping changed marks dependents dirty and lists
  /// the half as stale for the next freeze_view.
  template <typename Fn>
  void mutate_mapping(HalfId id, Fn&& fn);

  // --- algorithm steps -------------------------------------------------
  /// A direct inference the add-step evaluation decided to make. Evaluation
  /// (pure: frozen view + the half's own pre-pass state) is separated from
  /// the commit (mutating), so a pass evaluates all of its halves — on many
  /// workers in a full sweep — and then commits in ascending id order.
  struct DirectProposal {
    HalfId id = graph::kInvalidHalfId;
    asdata::Asn asn = asdata::kUnknownAsn;  // the dominating AS_N
    std::uint64_t key = 0;                  // its sibling group key
    std::uint32_t votes = 0;
    std::uint32_t neighbor_count = 0;

    friend bool operator==(const DirectProposal&,
                           const DirectProposal&) = default;
  };
  /// Decides whether `id` earns a direct inference against the frozen view.
  /// Reads only the frozen view and `id`'s own state and writes nothing but
  /// `scratch`, so workers call it concurrently.
  [[nodiscard]] std::optional<DirectProposal> evaluate_direct(
      HalfId id, std::vector<VoteGroup>& scratch) const;
  /// Applies a proposal: records the inference, updates the mapping
  /// overrides, propagates the indirect inference (§4.4.2), marks
  /// dependents dirty, and bumps the stats.
  void commit_direct(const DirectProposal& proposal);
  /// Gives `id` the direct inference `inference` (commit and stub step).
  void make_direct(HalfId id, const DirectInference& inference);
  /// True when the remove step must demote `id`'s direct inference (§4.5).
  /// Pure: frozen view + `id`'s own state only.
  [[nodiscard]] bool lost_support(HalfId id,
                                  std::vector<VoteGroup>& scratch) const;
  /// Fills `buffers` with decide(id, scratch)'s decisions for one pass:
  /// over every record half on all workers (a full sweep, which empties
  /// `pending`), or over `pending` on the caller. Debug builds check a
  /// set-driven pass against a full sweep (InvariantError on a mismatch).
  template <typename T, typename Decide>
  void decide_pass(bool full_sweep, HalfSet& pending,
                   std::vector<std::vector<T>>& buffers, Decide decide);
  /// One add pass's direct inferences, decided over every record half or
  /// the add set. Returns whether it made any.
  bool direct_pass(bool full_sweep);
  /// One remove pass's demotions, decided over every record half or the
  /// remove set.
  void demote_pass(bool full_sweep);
  void apply_indirect(HalfId source);
  bool resolve_dual_inferences();
  void count_divergent_other_sides();
  bool resolve_inverse_inferences();
  void add_step();
  void remove_step();
  void demote_direct(HalfId id);
  void stub_step();
  /// Drops `id`'s direct inference (dual or inverse resolution) and
  /// suppresses it until the next add step (§4.4.5).
  void discard_direct(HalfId id);
  void discard_indirect(HalfId id);

  // --- bookkeeping -----------------------------------------------------
  /// Canonical serialized engine state (the §4.6 repetition check compares
  /// these byte-for-byte; see core/convergence.h).
  [[nodiscard]] std::string state_signature() const;
  /// Inverse of save_state(). Overwrites the per-half records, held_,
  /// stats_ and tracker_, re-transcribes the whole frozen view from the
  /// restored state, and has the next add and remove steps open with full
  /// sweeps; throws CheckpointError on any malformed or mismatched blob
  /// (wrong version, half count differing from this graph, out-of-range
  /// ids, inconsistent entry flags or overrides, a direct inference on a
  /// phantom half, an unknown AS_N or indirect AS, an indirect source other
  /// than the half's other side, touched bits that the derived touched set
  /// cannot reproduce, truncation, trailing bytes). reset_state() must have
  /// run first.
  void restore_state(const std::string& blob);
  /// The run's inferences in (address, direction) order.
  [[nodiscard]] std::vector<Inference> collect(bool confident) const;
  /// Result::final_mappings, in (address, direction) order.
  [[nodiscard]] std::vector<std::pair<graph::InterfaceHalf, asdata::Asn>>
  final_mappings() const;
  void snapshot(const std::string& label);
  /// Sizes the slabs from the graph as it is now and empties the per-run
  /// state; base mappings come from base_cache_ where it has the address.
  void reset_state();
  /// Fills base_ / base_group_ and rebuilds base_cache_ (reset_state).
  void resolve_base();

  const graph::InterfaceGraph& graph_;
  const bgp::Ip2As& ip2as_;
  const asdata::As2Org& orgs_;
  const asdata::AsRelationships& rels_;
  Options options_;

  // Flat slabs and bitsets indexed by graph::HalfId.
  /// Every direct inference made this run, in the order made: a half holds
  /// directs_[direct_index_[id]], or none when its index is kNoDirect. The
  /// list is sized by the inferences made, not by the halves; its AS_N is
  /// the half's direct override.
  std::vector<DirectInference> directs_;
  std::vector<std::uint32_t> direct_index_;
  /// The AS of the indirect inference the half carries (§4.4.2), or
  /// kUnknownAsn when it carries none. Its source is the half's other side:
  /// apply_indirect writes it on its source's other side, and demote_direct
  /// ties a demoted half's own AS_N to its other side.
  std::vector<asdata::Asn> indirect_as_;
  /// Halves that gained a direct or indirect inference at some point this
  /// run (never removed within a run): what the scans for inferences walk.
  HalfSet held_;
  /// Record halves with at least two neighbours (§4.3's floor for a direct
  /// inference), taken from the graph by reset_state.
  HalfSet busy_;
  /// Halves whose direct inference was discarded during this add step; they
  /// cannot earn one again until the next add step (§4.4.5).
  HalfSet suppressed_;
  /// Halves holding a direct inference that the latest inverse pass found
  /// in an unresolvable pair (§4.4.4).
  HalfSet uncertain_;
  /// Base IP2AS, filled per run, and its sibling group key (also for an
  /// unannounced address: group_key(kUnknownAsn)).
  std::vector<asdata::Asn> base_;
  std::vector<std::uint64_t> base_group_;
  std::vector<asdata::Asn> view_;          ///< frozen effective mapping
  std::vector<std::uint64_t> view_group_;  ///< sibling group key of view_
  /// Halves whose effective mapping changed since the last freeze_view
  /// (fed by mutate_mapping; may repeat an id). Every other half's view_
  /// entry is already current.
  std::vector<HalfId> stale_;
  /// Halves whose add (remove) verdict may differ from their last
  /// evaluation's; the next set-driven add (remove) pass evaluates exactly
  /// these.
  HalfSet add_pending_;
  HalfSet remove_pending_;
  /// Whether the next add (remove) step opens with a full sweep instead of
  /// its set: a fresh run's first add step and both openings after
  /// restore_state (the sets are not in the blob).
  bool add_sweep_ = true;
  bool remove_sweep_ = false;

  /// One address's base mapping, as resolve_base caches it.
  struct BaseEntry {
    net::Ipv4Address address;
    asdata::Asn asn = asdata::kUnknownAsn;
    std::uint64_t group = 0;  ///< sibling group key
  };
  /// Base mapping of every address the last run resolved, ascending by
  /// address. Keyed by address, the one key a fold does not shift; valid
  /// across runs because ip2as_ and orgs_ never change.
  std::vector<BaseEntry> base_cache_;
  std::vector<BaseEntry> next_cache_;  ///< resolve_base's build buffer

  /// Worker pool for the full-sweep passes; null when the resolved thread
  /// count is 1 (everything then runs inline on the caller).
  std::unique_ptr<parallel::ThreadPool> pool_;
  /// Per-worker scratch and result buffers, one slot per pool worker
  /// (exactly one when sequential). Sequential code paths use slot 0.
  std::vector<std::vector<VoteGroup>> vote_scratch_;
  std::vector<std::vector<DirectProposal>> direct_buffers_;
  std::vector<std::vector<HalfId>> demote_buffers_;

  EngineStats stats_;
  std::vector<Snapshot> snapshots_;
  /// End-of-remove-step states for the §4.6 repetition check. A member (not
  /// a run() local) so save_state()/restore_state() can carry it across a
  /// checkpoint; run_controlled resets it on entry.
  ConvergenceTracker tracker_;
};

/// Convenience wrapper: construct an Engine and run it.
[[nodiscard]] Result run_mapit(const graph::InterfaceGraph& graph,
                               const bgp::Ip2As& ip2as,
                               const asdata::As2Org& orgs,
                               const asdata::AsRelationships& rels,
                               const Options& options = {});

}  // namespace mapit::core
