#include "ingest/runner.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/journal.h"
#include "ingest/pipeline.h"
#include "ingest/source.h"
#include "ingest/transport.h"
#include "net/error.h"
#include "net/load_report.h"
#include "query/server.h"
#include "trace/trace_io.h"

namespace mapit::ingest {

namespace {

using Clock = std::chrono::steady_clock;

/// A source line that parsed: what the journal, the fold, and the
/// quarantine accounting each need.
struct PendingLine {
  std::uint64_t offset = core::kNoSourceOffset;
  std::string line;
  trace::Trace trace;
  /// Remote batches are journaled (as one kRemoteBatch record) before their
  /// ACK, ahead of the flush that folds them; the journal stage skips these.
  bool journaled = false;
};

/// Sleeps `seconds` in small slices so a stop flag interrupts promptly.
void interruptible_sleep(double seconds, const std::atomic<bool>* stop) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    if (stop != nullptr && stop->load()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
  }
}

/// What the ingest loop shares with the HEALTH endpoint thread.
struct HealthState {
  Clock::time_point started = Clock::now();
  std::atomic<bool> degraded{false};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> publishes{0};
  std::atomic<std::size_t> pending{0};
  std::atomic<std::size_t> sessions{0};  ///< authenticated MDP1 connections

  void set_error(const std::string& message) {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_error_ = message;
  }
  [[nodiscard]] std::string error() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return last_error_;
  }
  void set_last_ack(const std::string& value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_ack_ = value;
  }
  [[nodiscard]] std::string last_ack() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return last_ack_;
  }

 private:
  mutable std::mutex mutex_;
  std::string last_error_;
  std::string last_ack_;
};

/// The ingest process's answer to `mapit supervise` liveness probes: one
/// connection at a time, read one request line (bounded by a receive
/// timeout so a wedged prober cannot pin the thread), answer a single
/// status line, close. Deliberately minimal — probes are rare and tiny,
/// and the real intake has its own socket.
class HealthEndpoint {
 public:
  HealthEndpoint(std::uint16_t port, const HealthState& state, fault::Io& io)
      : state_(&state), io_(&io) {
    query::ServerOptions options;
    options.port = port;
    listen_fd_ =
        query::detail::bind_listener(options, /*nonblocking=*/false, &port_);
    thread_ = std::thread([this] { loop(); });
  }
  HealthEndpoint(const HealthEndpoint&) = delete;
  HealthEndpoint& operator=(const HealthEndpoint&) = delete;
  ~HealthEndpoint() {
    stopping_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void loop() {
    while (!stopping_.load()) {
      const int fd =
          io_->accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) {
        if (stopping_.load()) break;
        if (errno == EINTR) continue;
        if (query::detail::transient_accept_error(errno)) {
          std::this_thread::sleep_for(std::chrono::milliseconds{1});
          continue;
        }
        break;
      }
      answer(fd);
      ::close(fd);
    }
  }

  void answer(int fd) {
    struct ::timeval timeout{2, 0};
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                       sizeof(timeout));
    char buffer[256];
    std::string request;
    while (request.find('\n') == std::string::npos &&
           request.size() < sizeof(buffer)) {
      const ssize_t n = io_->recv(fd, buffer, sizeof(buffer), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EOF, timeout, or error: answer what we can
      request.append(buffer, static_cast<std::size_t>(n));
    }
    const auto uptime =
        std::chrono::duration_cast<std::chrono::seconds>(Clock::now() -
                                                         state_->started)
            .count();
    std::string error = state_->error();
    if (error.empty()) error = "none";
    for (char& c : error) {
      if (c == ' ' || c == '\n' || c == '\r' || c == '\t') c = '_';
    }
    std::string last_ack = state_->last_ack();
    if (last_ack.empty()) last_ack = "none";
    for (char& c : last_ack) {
      if (c == ' ' || c == '\n' || c == '\r' || c == '\t') c = '_';
    }
    std::string line = "OK degraded=";
    line += state_->degraded.load(std::memory_order_relaxed) ? '1' : '0';
    line += " uptime=" + std::to_string(uptime);
    line += " batches=" +
            std::to_string(state_->batches.load(std::memory_order_relaxed));
    line += " publishes=" + std::to_string(state_->publishes.load(
                                std::memory_order_relaxed));
    line += " pending=" +
            std::to_string(state_->pending.load(std::memory_order_relaxed));
    line += " sessions=" +
            std::to_string(state_->sessions.load(std::memory_order_relaxed));
    line += " last_ack=" + last_ack;
    line += " last_error=" + error + "\n";
    (void)io_->send(fd, line.data(), line.size(), MSG_NOSIGNAL);
  }

  const HealthState* state_;
  fault::Io* io_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace

IngestStats run_ingest(const IngestOptions& options,
                       const std::atomic<bool>* stop) {
  fault::Io& io = options.io != nullptr ? *options.io : fault::system_io();
  IngestStats stats;

  IngestPipeline pipeline(options.base);
  if (options.log != nullptr) {
    // Lenient base loads report their quarantine as `mapit run` does.
    *options.log << pipeline.base_trace_report().summary("traces")
                 << pipeline.base_rib_report().summary("rib")
                 << "ingest: base " << pipeline.base_traces() << " traces, "
                 << pipeline.interfaces() << " interfaces\n";
  }

  // The journal binds to the base run's identity; a base input edited
  // since the journal was created is rejected here (exit 4), never folded.
  core::JournalContents replayed;
  core::JournalWriter writer = core::JournalWriter::open(
      options.journal_path, pipeline.meta(), &replayed, io);

  // Replay: restore every preserved delta line. Batch boundaries are
  // irrelevant to the folded result (the equivalence invariant), so the
  // whole journal folds as one batch; commit records are only consistency-
  // checked and used to find where the interrupted batch (if any) begins.
  std::uint64_t follow_offset = 0;
  std::uint64_t journal_traces = 0;
  std::uint64_t committed_traces = 0;
  std::uint64_t batch_seq = 0;
  WatermarkTable watermarks;
  trace::TraceCorpus replay_corpus;
  const auto replay_line = [&](const std::string& line) {
    ++journal_traces;
    try {
      replay_corpus.add(trace::parse_trace(line, "journal"));
    } catch (const Error& error) {
      // Only parsed lines are ever appended; one that no longer parses
      // means the parser and the journal disagree — corruption-grade.
      throw core::JournalError(options.journal_path +
                               ": journaled trace no longer parses: " +
                               error.what());
    }
  };
  for (const core::JournalRecord& record : replayed.records) {
    if (record.type == core::JournalRecord::Type::kTrace) {
      replay_line(record.line);
      if (record.source_offset != core::kNoSourceOffset) {
        follow_offset =
            std::max(follow_offset,
                     record.source_offset + record.line.size() + 1);
      }
    } else if (record.type == core::JournalRecord::Type::kRemoteBatch) {
      // Restore the session watermark the ACK promised was durable. The
      // record is atomic: its lines and its dedupe key replay together.
      const auto mark = watermarks.get(record.session);
      if (mark && record.batch_seq <= mark->seq) {
        throw core::JournalError(options.journal_path +
                                 ": remote batch sequence not ascending "
                                 "for session " +
                                 record.session);
      }
      if (mark && record.source_offset < mark->offset) {
        throw core::JournalError(options.journal_path +
                                 ": remote batch offset regressed for "
                                 "session " +
                                 record.session);
      }
      watermarks.set(record.session, record.batch_seq,
                     record.source_offset);
      for (const std::string& line : record.lines) replay_line(line);
    } else {
      if (record.traces_total != journal_traces) {
        throw core::JournalError(
            options.journal_path + ": commit record claims " +
            std::to_string(record.traces_total) + " traces but " +
            std::to_string(journal_traces) + " precede it");
      }
      if (record.batch_seq <= batch_seq) {
        throw core::JournalError(options.journal_path +
                                 ": commit sequence numbers not ascending");
      }
      batch_seq = record.batch_seq;
      committed_traces = record.traces_total;
    }
  }
  stats.replayed_traces = journal_traces;
  stats.folded_traces = journal_traces;
  std::uint64_t total_traces = journal_traces;
  pipeline.fold(std::move(replay_corpus));

  HealthState health;
  std::optional<HealthEndpoint> health_endpoint;
  if (options.health_port >= 0) {
    health_endpoint.emplace(static_cast<std::uint16_t>(options.health_port),
                            health, io);
    stats.health_port = health_endpoint->port();
    if (options.log != nullptr) {
      *options.log << "ingest: health endpoint on 127.0.0.1:"
                   << health_endpoint->port() << "\n";
    }
  }

  // ---- the flush machine --------------------------------------------------
  // One batch moves through journal -> fold -> publish -> commit. A stage
  // that fails with an I/O-shaped Error (ENOSPC, EIO, a full filesystem)
  // parks the machine instead of killing the run: the loop keeps tailing
  // its sources and the failed stage is retried every retry_interval
  // seconds until the disk recovers. Completed stages never rerun, so the
  // eventual republish is byte-identical to an unfaulted run's output.
  // The journal stages track a dirty flag because a failed append can
  // leave a partial frame on disk that writer.size() does not account
  // for — a retry first rolls the file back to the batch's start.
  enum class Stage { kIdle, kJournal, kFold, kPublish, kCommit };
  struct FlushState {
    Stage stage = Stage::kIdle;
    std::vector<PendingLine> inflight;  ///< the batch being flushed
    std::uint64_t seq = 0;              ///< its commit sequence number
    bool commit = true;     ///< append a commit record at the end
    bool startup = false;   ///< the replay-completion publish
    std::uint64_t rollback_size = 0;  ///< journal size to restore on retry
    bool journal_dirty = false;  ///< bytes possibly past rollback_size
    bool degraded = false;
    Clock::time_point next_attempt{};
  };
  FlushState flush;
  store::WriteInfo info;
  const double retry_interval =
      options.retry_interval > 0 ? options.retry_interval : 1.0;
  // The remote receipt path (journal + fsync before ACK) has its own
  // degraded park, independent of the flush machine's; HEALTH reports
  // degraded while either is stuck.
  bool remote_degraded = false;
  bool remote_dirty = false;  ///< a parked remote append may have left bytes
  std::uint64_t remote_rollback = 0;
  Clock::time_point remote_next_attempt{};

  const auto attempt_flush = [&]() -> bool {
    try {
      if (flush.stage == Stage::kJournal) {
        if (remote_dirty) {
          // A parked remote append left bytes past the durable end; clear
          // them before this batch claims the tail (the remote retry will
          // recapture a fresh rollback point).
          writer.rollback_to(remote_rollback);
          remote_dirty = false;
          flush.rollback_size = writer.size();
        }
        if (flush.journal_dirty) {
          writer.rollback_to(flush.rollback_size);
          flush.journal_dirty = false;
        }
        flush.journal_dirty = true;
        // WAL order: accepted lines become durable before the fold that
        // consumes them; the commit record lands only after the snapshot
        // rename. A crash anywhere in between replays into identical
        // state. The batch's records go out in one write.
        std::vector<core::JournalWriter::TraceLine> lines;
        lines.reserve(flush.inflight.size());
        for (const PendingLine& entry : flush.inflight) {
          if (entry.journaled) continue;  // remote lines are durable already
          lines.push_back({entry.offset, entry.line});
        }
        writer.append_traces(lines);
        writer.sync();
        flush.journal_dirty = false;
        flush.stage = Stage::kFold;
      }
      if (flush.stage == Stage::kFold) {
        // In-memory: cannot fail with I/O, runs exactly once per batch
        // (the traces move out of inflight here).
        trace::TraceCorpus batch;
        for (PendingLine& entry : flush.inflight) {
          batch.add(std::move(entry.trace));
        }
        pipeline.fold(std::move(batch));
        total_traces += flush.inflight.size();
        stats.folded_traces += flush.inflight.size();
        flush.stage = Stage::kPublish;
      }
      if (flush.stage == Stage::kPublish) {
        info = pipeline.publish(options.out_path, io);
        ++stats.publishes;
        health.publishes.fetch_add(1, std::memory_order_relaxed);
        stats.snapshot_crc = info.payload_crc32;
        if (flush.commit) {
          flush.stage = Stage::kCommit;
          flush.rollback_size = writer.size();
          flush.journal_dirty = false;
        } else {
          flush.stage = Stage::kIdle;
        }
      }
      if (flush.stage == Stage::kCommit) {
        if (flush.journal_dirty) {
          writer.rollback_to(flush.rollback_size);
          flush.journal_dirty = false;
        }
        flush.journal_dirty = true;
        writer.append(core::JournalRecord::commit(flush.seq, total_traces,
                                                  info.payload_crc32));
        writer.sync();
        flush.journal_dirty = false;
        batch_seq = flush.seq;
        ++stats.batches;
        health.batches.fetch_add(1, std::memory_order_relaxed);
        flush.stage = Stage::kIdle;
      }
    } catch (const Error& error) {
      // JournalError from append/sync/rollback, SnapshotError from
      // publish. (Injected crashes are not Errors and still unwind —
      // the WAL replay covers those.)
      if (!flush.degraded) {
        flush.degraded = true;
        ++stats.degraded_entries;
        health.degraded.store(true, std::memory_order_relaxed);
        if (options.log != nullptr) {
          *options.log << "ingest: DEGRADED: " << error.what()
                       << " (retrying every " << retry_interval << "s)\n";
        }
      }
      health.set_error(error.what());
      flush.next_attempt =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(retry_interval));
      return false;
    }
    if (flush.degraded) {
      flush.degraded = false;
      health.degraded.store(remote_degraded, std::memory_order_relaxed);
      if (options.log != nullptr) {
        *options.log << "ingest: recovered from degraded mode\n";
      }
    }
    if (options.log != nullptr && !flush.startup) {
      char crc_hex[9];
      std::snprintf(crc_hex, sizeof(crc_hex), "%08x", info.payload_crc32);
      *options.log << "ingest: batch " << flush.seq << ": folded "
                   << flush.inflight.size() << " traces (" << total_traces
                   << " total), snapshot crc32 " << crc_hex << "\n";
    }
    flush.inflight.clear();
    return true;
  };

  // Publish the replayed state. When the journal carries trace records
  // past its last commit (crash between watermark and commit), this is
  // the interrupted batch completing: same fold, same snapshot, and the
  // commit record it never got. Runs through the flush machine so even a
  // sick disk at startup degrades instead of killing the process.
  flush.stage = Stage::kPublish;
  flush.startup = true;
  flush.commit = journal_traces > committed_traces;
  flush.seq = batch_seq + 1;
  while (!attempt_flush()) {
    if (stop != nullptr && stop->load()) break;
    interruptible_sleep(retry_interval, stop);
  }
  if (options.log != nullptr && flush.stage == Stage::kIdle) {
    *options.log << "ingest: replayed " << journal_traces
                 << " journaled traces, published " << options.out_path
                 << "\n";
  }
  flush.startup = false;

  std::optional<FileTailer> tailer;
  if (!options.follow_path.empty()) {
    tailer.emplace(options.follow_path, follow_offset, io);
  }
  std::optional<TransportServer> transport;
  if (options.listen_port >= 0) {
    TransportServerOptions server_options;
    server_options.port = static_cast<std::uint16_t>(options.listen_port);
    server_options.secret = options.secret;
    server_options.meta = pipeline.meta();
    server_options.max_inflight_batches = options.max_inflight_batches;
    server_options.heartbeat_seconds = options.transport_heartbeat_seconds;
    server_options.deadline_seconds = options.transport_deadline_seconds;
    transport.emplace(server_options, watermarks, io);
    stats.listen_port = transport->port();
    if (options.log != nullptr) {
      char fingerprint_hex[17];
      std::snprintf(fingerprint_hex, sizeof(fingerprint_hex), "%016llx",
                    static_cast<unsigned long long>(
                        combined_fingerprint(pipeline.meta())));
      *options.log << "ingest: listening (MDP1) on 127.0.0.1:"
                   << transport->port() << ", base fingerprint "
                   << fingerprint_hex << "\n";
    }
  }

  std::vector<SourceLine> incoming;
  std::vector<PendingLine> pending;
  Clock::time_point first_pending{};
  std::uint64_t delta_line_no = 0;
  LoadReport delta_report;

  // Seeds a new batch into the flush machine: pending -> inflight, journal
  // rollback point at the current durable end of file.
  const auto start_flush = [&] {
    flush.inflight = std::move(pending);
    pending.clear();
    flush.stage = Stage::kJournal;
    flush.commit = true;
    flush.seq = batch_seq + 1;
    flush.rollback_size = writer.size();
    flush.journal_dirty = false;
    flush.next_attempt = Clock::now();
  };

  // ---- the remote receipt path --------------------------------------------
  // One drained batch becomes one atomic kRemoteBatch journal record:
  // journal -> fsync -> watermark -> ACK, strictly in that order, so an
  // ACK always names durable state. Lines are parsed exactly once at
  // intake (quarantine accounting must not double-count across journal
  // retries); the journal step has its own degraded park mirroring the
  // flush machine's, and runs only while that machine is idle — the
  // commit-record consistency check relies on every remote record
  // preceding the commit that folds its lines.
  struct RemoteWork {
    std::uint64_t connection_id = 0;
    std::string session;
    std::uint64_t seq = 0;
    std::uint64_t end_offset = 0;
    std::vector<PendingLine> accepted;  ///< parsed, marked journaled
    core::JournalRecord record;         ///< prebuilt kRemoteBatch
  };
  std::deque<RemoteWork> remote_backlog;
  std::vector<ReceivedBatch> remote_incoming;

  const auto intake_remote = [&](ReceivedBatch& batch) {
    RemoteWork work;
    work.connection_id = batch.connection_id;
    work.session = batch.session;
    work.seq = batch.seq;
    work.end_offset = batch.end_offset;
    std::vector<std::string> accepted_lines;
    for (std::string& line : batch.lines) {
      ++delta_line_no;
      if (line.empty() || line[0] == '#') continue;  // corpus comment rules
      try {
        trace::Trace parsed = trace::parse_trace(
            line, "delta line " + std::to_string(delta_line_no));
        PendingLine entry;
        entry.line = line;
        entry.trace = std::move(parsed);
        entry.journaled = true;
        work.accepted.push_back(std::move(entry));
        accepted_lines.push_back(std::move(line));
        delta_report.add_loaded(1);
      } catch (const Error& error) {
        if (!options.base.lenient) throw;
        delta_report.record(delta_line_no, 0, error.what());
      }
    }
    // Even an all-quarantined batch is journaled: the watermark must
    // become durable before the ACK, or a resend would re-quarantine.
    work.record = core::JournalRecord::remote_batch(
        work.session, work.seq, work.end_offset, std::move(accepted_lines));
    remote_backlog.push_back(std::move(work));
  };

  const auto attempt_remote = [&]() -> bool {
    while (!remote_backlog.empty()) {
      RemoteWork& work = remote_backlog.front();
      const auto mark = watermarks.get(work.session);
      const std::uint64_t durable_seq = mark ? mark->seq : 0;
      if (mark && work.seq <= mark->seq) {
        // Raced duplicate (e.g. the same seq arrived on two connections
        // around a reconnect): the journal already has it; re-ACK the
        // watermark so the sender advances.
        ++stats.remote_duplicates;
        watermarks.note_ack(work.session);
        if (transport) transport->ack(work.connection_id, mark->seq, mark->offset);
        remote_backlog.pop_front();
        continue;
      }
      if (work.seq != durable_seq + 1) {
        // Connection-level sequencing makes a gap impossible unless the
        // peer is buggy; drop without ACK and let its deadline resync it.
        if (options.log != nullptr) {
          *options.log << "ingest: dropping out-of-order remote batch "
                       << work.seq << " from session " << work.session
                       << " (watermark " << durable_seq << ")\n";
        }
        remote_backlog.pop_front();
        continue;
      }
      if (mark && work.end_offset < mark->offset) {
        // A seq that advances while the source offset regresses can only
        // come from a buggy or malicious sender. It must never become
        // durable — replay rejects an offset-regressing record as journal
        // corruption — so drop it without an ACK, like a gap.
        if (options.log != nullptr) {
          *options.log << "ingest: dropping offset-regressing remote batch "
                       << work.seq << " from session " << work.session
                       << " (offset " << work.end_offset << " < watermark "
                       << mark->offset << ")\n";
        }
        remote_backlog.pop_front();
        continue;
      }
      try {
        if (remote_dirty) {
          writer.rollback_to(remote_rollback);
          remote_dirty = false;
        }
        remote_rollback = writer.size();
        remote_dirty = true;
        writer.append(work.record);
        writer.sync();  // the durability point: ACK only past this line
        remote_dirty = false;
      } catch (const Error& error) {
        if (!remote_degraded) {
          remote_degraded = true;
          ++stats.degraded_entries;
          health.degraded.store(true, std::memory_order_relaxed);
          if (options.log != nullptr) {
            *options.log << "ingest: DEGRADED (remote): " << error.what()
                         << " (retrying every " << retry_interval << "s)\n";
          }
        }
        health.set_error(error.what());
        remote_next_attempt =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(retry_interval));
        return false;
      }
      watermarks.set(work.session, work.seq, work.end_offset);
      watermarks.note_ack(work.session);
      if (transport) transport->ack(work.connection_id, work.seq, work.end_offset);
      ++stats.remote_batches;
      if (pending.empty() && !work.accepted.empty()) {
        first_pending = Clock::now();
      }
      for (PendingLine& entry : work.accepted) {
        pending.push_back(std::move(entry));
      }
      remote_backlog.pop_front();
    }
    if (remote_degraded) {
      remote_degraded = false;
      health.degraded.store(flush.degraded, std::memory_order_relaxed);
      if (options.log != nullptr) {
        *options.log << "ingest: recovered from degraded mode (remote)\n";
      }
    }
    return true;
  };

  const std::size_t backlog_cap = options.max_pending_lines != 0
                                      ? options.max_pending_lines
                                      : options.batch_lines * 10;

  while (true) {
    const bool stopping = stop != nullptr && stop->load();
    // Advance an in-flight flush first: immediately when healthy, at the
    // retry cadence while degraded — and once more when stopping, a last
    // chance to land the batch before exit.
    if (flush.stage != Stage::kIdle &&
        (!flush.degraded || stopping ||
         Clock::now() >= flush.next_attempt)) {
      (void)attempt_flush();
    }
    if (stopping) {
      if (flush.stage == Stage::kIdle && !pending.empty()) {
        start_flush();  // accepted lines must not be lost to a shutdown
        (void)attempt_flush();
      }
      if (flush.stage != Stage::kIdle && options.log != nullptr) {
        *options.log << "ingest: stopping while degraded: the in-flight "
                        "batch did not complete\n";
      }
      break;
    }
    if (options.max_batches != 0 && stats.batches >= options.max_batches) {
      break;
    }
    incoming.clear();
    std::size_t arrived = 0;
    // While a flush is parked degraded, keep accepting input only up to
    // the backlog bound; past it the tailer holds position.
    const bool backlogged =
        flush.stage != Stage::kIdle && pending.size() >= backlog_cap;
    // Remote batches: retry any parked journal write, then drain fresh
    // ones — but only while the flush machine is idle (it owns the journal
    // tail mid-batch) and the backlog bound has room. Batches left queued
    // inside the server throttle senders via the inflight quota.
    if (transport && flush.stage == Stage::kIdle &&
        (!remote_degraded || Clock::now() >= remote_next_attempt)) {
      if (attempt_remote() && pending.size() < backlog_cap) {
        remote_incoming.clear();
        transport->drain(remote_incoming);
        for (ReceivedBatch& batch : remote_incoming) {
          arrived += batch.lines.size();
          intake_remote(batch);
        }
        if (!remote_backlog.empty()) (void)attempt_remote();
      }
    }
    if (tailer && !backlogged) arrived += tailer->poll(incoming);
    for (SourceLine& source_line : incoming) {
      ++delta_line_no;
      const std::string& line = source_line.line;
      if (line.empty() || line[0] == '#') continue;  // corpus comment rules
      try {
        trace::Trace parsed = trace::parse_trace(
            line, "delta line " + std::to_string(delta_line_no));
        if (pending.empty()) first_pending = Clock::now();
        pending.push_back(PendingLine{source_line.offset,
                                      std::move(source_line.line),
                                      std::move(parsed)});
        delta_report.add_loaded(1);
      } catch (const Error& error) {
        if (!options.base.lenient) throw;
        delta_report.record(delta_line_no, source_line.offset, error.what());
      }
    }
    stats.quarantined = delta_report.skipped();
    health.pending.store(pending.size() + flush.inflight.size(),
                         std::memory_order_relaxed);
    if (transport) {
      health.sessions.store(transport->sessions(),
                            std::memory_order_relaxed);
      if (const auto last = watermarks.last_ack()) {
        health.set_last_ack(last->first + ":" +
                            std::to_string(last->second.seq));
      }
    }

    bool due = flush.stage == Stage::kIdle &&
               pending.size() >= options.batch_lines;
    if (!due && flush.stage == Stage::kIdle && options.batch_seconds > 0 &&
        !pending.empty() &&
        std::chrono::duration<double>(Clock::now() - first_pending).count() >=
            options.batch_seconds) {
      due = true;
    }
    if (options.drain && arrived == 0 && !backlogged &&
        remote_backlog.empty()) {
      if (flush.stage == Stage::kIdle) {
        if (pending.empty()) break;  // input exhausted and flushed: done
        start_flush();  // leftovers become the final batch
        continue;
      }
      // A drain run never abandons its last batch: wait out the fault and
      // let the top of the loop retry it.
      interruptible_sleep(std::min(options.poll_interval, retry_interval),
                          stop);
      continue;
    }
    if (due) {
      start_flush();
      (void)attempt_flush();
    } else if (arrived == 0) {
      interruptible_sleep(flush.degraded
                              ? std::min(options.poll_interval,
                                         retry_interval)
                              : options.poll_interval,
                          stop);
    }
  }

  // Duplicates are dropped at two levels: connection threads re-ACK
  // batches already at-or-below the durable watermark (the common resend
  // path), and attempt_remote catches the race where the duplicate was
  // queued before the watermark advanced. The stat reports both.
  if (transport) stats.remote_duplicates += transport->duplicates();
  if (options.log != nullptr) {
    const std::string summary = delta_report.summary("ingest deltas");
    if (!summary.empty()) *options.log << summary;
  }
  return stats;
}

}  // namespace mapit::ingest
