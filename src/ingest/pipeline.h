// Incremental MAP-IT pipeline: the in-memory state `mapit ingest` folds
// delta traces into.
//
// The pipeline loads the base run once through core::RunInputs (the corpus
// streamed straight into the interface graph, the RIB, optional AS
// datasets) and then accepts delta batches: each batch is sanitized
// independently (per-trace decisions — identical whether a trace is
// sanitized in the base load or in a delta), its raw addresses are
// merged into the corpus-wide address population (the §4.2 other-side
// heuristic deliberately sees discarded traces too), and the graph is
// folded via InterfaceGraph::fold. Publishing runs the full multipass
// engine over the folded graph from empty per-run state — the engine's
// passes are history-dependent, so re-running from scratch per batch is
// the only recompute that preserves byte-identical equivalence with a cold
// batch run; the incremental part is never re-parsing, re-sanitizing, or
// re-folding the base. The pipeline keeps one engine for its lifetime, so
// its thread pool, its buffers and the base IP2AS mappings of addresses
// already seen survive from one publish to the next; likewise one worker
// pool serves every fold.
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

#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/run_inputs.h"
#include "fault/io.h"
#include "net/load_report.h"
#include "parallel/thread_pool.h"
#include "store/writer.h"
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

  /// Identity block for the delta journal: core::input_meta of the base
  /// inputs, the same identity a checkpoint of the base run records.
  [[nodiscard]] const core::CheckpointMeta& meta() const { return meta_; }

  /// Folds one batch of raw (unsanitized) delta traces into the graph.
  /// A moved-in batch is sanitized in place; an lvalue is copied once.
  void fold(trace::TraceCorpus raw_delta);

  /// Runs the pipeline's engine over the folded graph. Equal to a fresh
  /// engine's run over the same graph.
  [[nodiscard]] core::Result run();

  /// Runs the engine over the folded graph and atomically publishes the
  /// snapshot to `path`. Byte-identical for identical folded content,
  /// any thread count, any fold batching.
  store::WriteInfo publish(const std::string& path,
                           fault::Io& io = fault::system_io());

  /// Serialized snapshot bytes for the current folded state (tests compare
  /// these against a cold run's without touching the filesystem).
  [[nodiscard]] std::string serialize();

  /// The loaded base run; its graph and address population include every
  /// fold so far.
  [[nodiscard]] const core::RunInputs& inputs() const { return *base_; }

  [[nodiscard]] std::size_t interfaces() const {
    return base_->corpus.graph.size();
  }
  [[nodiscard]] std::size_t base_traces() const {
    return base_->corpus.stats.input_traces;
  }
  [[nodiscard]] std::size_t delta_traces() const { return delta_traces_; }
  [[nodiscard]] const LoadReport& base_trace_report() const {
    return base_->trace_report;
  }
  [[nodiscard]] const LoadReport& base_rib_report() const {
    return base_->rib_report;
  }

 private:
  core::Options options_;
  /// The loaded base run. Folds grow its graph and its address population,
  /// which then holds the distinct raw addresses of base plus every delta
  /// so far (the §4.2 witness population).
  std::unique_ptr<core::RunInputs> base_;
  /// The engine over base_'s graph, created by the first run().
  std::unique_ptr<core::Engine> engine_;
  /// The workers of every fold's sanitize and pair passes, created by the
  /// first fold when options_.threads asks for more than one.
  std::unique_ptr<parallel::ThreadPool> fold_pool_;
  core::CheckpointMeta meta_;
  std::size_t delta_traces_ = 0;
};

}  // namespace mapit::ingest
