// Incremental MAP-IT pipeline: the in-memory state `mapit ingest` folds
// delta traces into.
//
// The pipeline loads the base run once (the corpus streamed straight into
// the interface graph by graph::read_graph, the RIB, optional AS datasets)
// and then accepts delta batches: each batch is sanitized independently
// (per-trace decisions — identical whether a trace is sanitized in the
// base load or in a delta), its raw addresses are
// merged into the corpus-wide address population (the §4.2 other-side
// heuristic deliberately sees discarded traces too), and the graph is
// folded via InterfaceGraph::fold. Publishing runs the full multipass
// engine cold over the folded graph — the engine's passes are
// history-dependent, so re-running from scratch per batch is the only
// recompute that preserves byte-identical equivalence with a cold batch
// run; the incremental part is never re-parsing, re-sanitizing, or
// re-folding the base.
//
// Equivalence invariant (the subsystem's signature property, pinned by
// tests/integration/ingest_equivalence_test.cpp): after folding deltas D
// over base B in any batch partitioning and publishing with any thread
// count, the published snapshot is byte-identical to `mapit snapshot` over
// the concatenated corpus B+D.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "asdata/as2org.h"
#include "asdata/ixp.h"
#include "asdata/relationships.h"
#include "bgp/ip2as.h"
#include "bgp/rib.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "fault/io.h"
#include "graph/interface_graph.h"
#include "net/ipv4.h"
#include "net/load_report.h"
#include "store/writer.h"
#include "trace/sanitize.h"
#include "trace/trace.h"

namespace mapit::ingest {

/// Base-run inputs for an ingest session. Paths are the library's text
/// formats; empty optional paths mean "absent" (exactly like the CLI's
/// missing flags — the dataset fingerprint distinguishes the two).
struct IngestSetup {
  std::string traces_path;         ///< base corpus (required)
  std::string rib_path;            ///< required
  std::string relationships_path;  ///< optional
  std::string as2org_path;         ///< optional
  std::string ixps_path;           ///< optional
  bool lenient = false;            ///< quarantine malformed base lines
  core::Options options;           ///< engine options (threads included)
};

class IngestPipeline {
 public:
  /// Loads the base run and builds its graph. Throws mapit::Error on any
  /// load failure; in strict mode a malformed line throws ParseError.
  /// Quarantined base lines (lenient mode) land in base_trace_report() /
  /// base_rib_report().
  explicit IngestPipeline(const IngestSetup& setup);

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Identity block for the delta journal: config hash + fingerprints of
  /// the base input files, computed exactly like the checkpoint family's.
  [[nodiscard]] const core::CheckpointMeta& meta() const { return meta_; }

  /// Folds one batch of raw (unsanitized) delta traces into the graph.
  void fold(const trace::TraceCorpus& raw_delta);

  /// Runs the engine over the folded graph and atomically publishes the
  /// snapshot to `path`. Byte-identical for identical folded content,
  /// any thread count, any fold batching.
  store::WriteInfo publish(const std::string& path,
                           fault::Io& io = fault::system_io());

  /// Serialized snapshot bytes for the current folded state (tests compare
  /// these against a cold run's without touching the filesystem).
  [[nodiscard]] std::string serialize() const;

  [[nodiscard]] std::size_t interfaces() const { return graph_->size(); }
  [[nodiscard]] std::size_t base_traces() const { return base_traces_; }
  [[nodiscard]] std::size_t delta_traces() const { return delta_traces_; }
  [[nodiscard]] const LoadReport& base_trace_report() const {
    return trace_report_;
  }
  [[nodiscard]] const LoadReport& base_rib_report() const {
    return rib_report_;
  }

 private:
  [[nodiscard]] core::Result run() const;

  core::Options options_;
  core::CheckpointMeta meta_;
  LoadReport trace_report_;
  LoadReport rib_report_;
  std::size_t base_traces_ = 0;
  std::size_t delta_traces_ = 0;

  bgp::Rib rib_;
  asdata::AsRelationships rels_;
  asdata::As2Org orgs_;
  asdata::IxpRegistry ixps_;
  /// Sorted distinct addresses of the raw corpus, base plus every folded
  /// delta so far (the §4.2 witness population).
  std::vector<net::Ipv4Address> all_addresses_;
  std::unique_ptr<graph::InterfaceGraph> graph_;
  std::unique_ptr<bgp::Ip2As> ip2as_;
};

}  // namespace mapit::ingest
