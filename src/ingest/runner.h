// The `mapit ingest` loop: sources -> journal -> fold -> publish.
//
// One run_ingest call owns the whole streaming session:
//
//   1. Load the base run (IngestPipeline) and open the delta journal,
//      creating it when absent and verifying its identity block against
//      the base inputs otherwise (a changed base = JournalError, exit 4).
//   2. Replay the journal: every preserved trace line is parsed and folded
//      (in one batch — the equivalence invariant makes batching
//      irrelevant), and the follow-file position advances past the bytes
//      the journal already preserved.
//   3. Publish the snapshot for the replayed state. If the journal ended
//      with trace records after the last commit marker (a crash between
//      watermark and commit), this publish completes the interrupted
//      batch and appends its commit record — resume-after-kill lands in
//      exactly the state an uninterrupted run would have reached.
//   4. Loop: poll the sources; quarantine (lenient) or reject (strict)
//      lines that do not parse; at each watermark — `batch_lines` pending
//      lines, or `batch_seconds` since the first pending line arrived —
//      append the accepted lines to the journal, sync it (the durability
//      point), fold, publish, then append + sync the commit record.
//
// WAL ordering: lines are durable in the journal *before* the fold that
// consumes them, and the commit record is appended only after the
// published snapshot is safely renamed into place. A crash at any point
// therefore loses nothing: the worst case replays a batch whose snapshot
// was already published, which re-publishes identical bytes.
//
// Degraded mode: a journal or publish failure with an I/O flavor (ENOSPC,
// EIO, a full /tmp) no longer kills the run. The flush parks mid-stage and
// is retried every `retry_interval` seconds while the loop keeps tailing
// its sources (bounded by `max_pending_lines`, past which polling pauses
// and MDP1 senders wait on their in-flight quota). Completed stages are
// never redone, so when the disk recovers the republished snapshot is
// byte-identical to an unfaulted run's. Journal corruption at startup and
// a rotated/truncated follow file (SourceRotatedError) stay fatal — those
// are not conditions that clear on their own. The optional HEALTH endpoint (`health_port`)
// reports `degraded=` so `mapit supervise` can see the state.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "fault/io.h"
#include "ingest/pipeline.h"

namespace mapit::ingest {

struct IngestOptions {
  /// The base run; `base.lenient` also quarantines malformed delta lines.
  IngestSetup base;

  std::string journal_path;  ///< delta journal (required)
  std::string out_path;      ///< snapshot publish target (required)

  /// Append-only delta corpus file to tail-follow ("" = none).
  std::string follow_path;
  /// MDP1 framed-transport listener port (-1 = none; 0 = ephemeral).
  /// Remote `mapit send` clients authenticate with `secret` and get
  /// exactly-once journaling (ACK after fsync, watermark dedupe).
  int listen_port = -1;
  /// Shared HMAC secret for the MDP1 listener (required with listen_port).
  std::string secret;
  /// MDP1 liveness tuning; 0 disables the heartbeat / read deadline
  /// (deterministic-syscall test hook).
  double transport_heartbeat_seconds = 2.0;
  double transport_deadline_seconds = 15.0;
  /// Per-connection unACKed batch quota for the MDP1 listener.
  std::size_t max_inflight_batches = 8;

  std::size_t batch_lines = 1000;  ///< count watermark
  double batch_seconds = 5.0;      ///< time watermark (0 = count only)
  double poll_interval = 0.2;      ///< source poll cadence (seconds)
  /// Degraded-mode retry cadence: how long to wait before re-attempting a
  /// flush stage that failed with an I/O error (<= 0 picks 1s).
  double retry_interval = 1.0;
  /// Accepted-but-unflushed line bound while a flush is parked degraded:
  /// past it, source polling pauses until the flush lands (0 = ten
  /// batches' worth).
  std::size_t max_pending_lines = 0;
  /// HEALTH endpoint port for supervision probes (-1 = none; 0 =
  /// ephemeral). Answers one `OK degraded=... last_error=...` line per
  /// connection.
  int health_port = -1;
  /// Consume everything the sources have right now, flush, publish, exit —
  /// instead of waiting for more input. The batch/resume test mode.
  bool drain = false;
  /// Stop after this many batch commits (0 = unlimited). With --drain the
  /// run also ends once input is exhausted, whichever comes first.
  std::uint64_t max_batches = 0;

  std::ostream* log = nullptr;  ///< progress lines (nullptr = silent)
  fault::Io* io = nullptr;      ///< syscall boundary (nullptr = system_io)
};

struct IngestStats {
  std::uint64_t replayed_traces = 0;  ///< journal lines restored at startup
  std::uint64_t folded_traces = 0;    ///< delta traces folded in total
  std::uint64_t batches = 0;          ///< commit records appended this run
  std::uint64_t quarantined = 0;      ///< delta lines that failed to parse
  std::uint64_t publishes = 0;        ///< snapshot publications
  std::uint64_t degraded_entries = 0; ///< flush failures that began a park
  std::uint64_t remote_batches = 0;   ///< MDP1 batches journaled + ACKed
  std::uint64_t remote_duplicates = 0;///< replayed batches deduped by watermark
  std::uint32_t snapshot_crc = 0;     ///< last published payload CRC
  std::uint16_t listen_port = 0;      ///< bound MDP1 port (when listening)
  std::uint16_t health_port = 0;      ///< bound HEALTH port (when enabled)
};

/// Runs the ingest session described by `options` until input is exhausted
/// (--drain), `max_batches` commits, or `*stop` becomes true (the CLI sets
/// it from SIGTERM/SIGINT; pending accepted lines are flushed as a final
/// batch first). Throws mapit::Error / core::JournalError like the rest of
/// the library; the CLI maps them to exit codes 3 / 4.
IngestStats run_ingest(const IngestOptions& options,
                       const std::atomic<bool>* stop = nullptr);

}  // namespace mapit::ingest
