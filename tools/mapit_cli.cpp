// mapit — command-line front end for the MAP-IT library.
//
//   mapit run       run MAP-IT over a traceroute corpus + datasets
//   mapit stats     sanitization / interface-graph statistics for a corpus
//   mapit simulate  generate a synthetic Internet's datasets to files
//   mapit snapshot  run MAP-IT and write the binary snapshot artifact
//   mapit query     batch-answer queries against a snapshot (stdin/stdout)
//   mapit serve     serve a snapshot over a TCP line protocol
//   mapit ingest    stream delta traces into a journal + live snapshot
//   mapit send      ship a delta trace file to a remote ingest over MDP1
//   mapit supervise babysit a fleet of serve/ingest workers from a spec
//   mapit help      usage
//
// All file formats are the library's line-oriented text formats (see the
// respective *_io headers); `mapit simulate` writes examples of each. The
// snapshot artifact is the binary format of src/store/format.h.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/claims.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/as_path.h"
#include "core/explain.h"
#include "core/result_io.h"
#include "core/supervisor.h"
#include "eval/diff_sweep.h"
#include "eval/experiment.h"
#include "fault/atomic_file.h"
#include "graph/interface_graph.h"
#include "ingest/runner.h"
#include "ingest/sender.h"
#include "net/error.h"
#include "net/load_report.h"
#include "net/parse.h"
#include "query/query_engine.h"
#include "query/async_server.h"
#include "query/hub.h"
#include "query/server.h"
#include "store/reader.h"
#include "store/writer.h"
#include "supervise/supervise.h"
#include "topo/truth_io.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"

namespace {

using namespace mapit;

/// Documented process exit codes, used consistently across subcommands so
/// schedulers and scripts can branch on them (see README and DESIGN.md §11).
constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;             ///< bad flags/arguments
constexpr int kExitLoadError = 3;         ///< input file unreadable/malformed
constexpr int kExitCheckpointMismatch = 4;  ///< corrupt or foreign checkpoint
constexpr int kExitInterrupted = 5;  ///< graceful checkpoint-and-exit
                                     ///< (signal, deadline, memory budget)
constexpr int kExitCrashLoop = 6;    ///< supervise: a worker tripped the
                                     ///< crash-loop circuit breaker
constexpr int kExitTransportRejected = 7;  ///< send: rejected at the MDP1
                                           ///< handshake (auth/fingerprint)
constexpr int kExitTransportGaveUp = 8;  ///< send: reconnect attempts
                                         ///< exhausted

/// Prints usage to stdout for `mapit help` (exit 0) and to stderr for
/// every rejected invocation (exit 2) — errors must never masquerade as
/// successful output in a pipeline.
[[noreturn]] void usage(int exit_code) {
  (exit_code == 0 ? std::cout : std::cerr) <<
      "usage:\n"
      "  mapit run --traces FILE --rib FILE [options]\n"
      "      --relationships FILE   CAIDA serial-1 AS relationships\n"
      "      --as2org FILE          asn|org sibling data\n"
      "      --ixps FILE            IXP prefix list\n"
      "      --f VALUE              majority threshold (default 0.5)\n"
      "      --remove-rule RULE     majority (default) or add\n"
      "      --no-stub              disable the stub-AS heuristic\n"
      "      --no-siblings          disable sibling grouping\n"
      "      --output FILE          confident inferences (default stdout)\n"
      "      --uncertain FILE       uncertain inferences\n"
      "      --explain ADDRESS      print the evidence trail for one address\n"
      "      --threads N            worker threads (0 = one per core, default;\n"
      "                             1 = single-threaded; output is identical\n"
      "                             for every value)\n"
      "      --lenient              quarantine malformed trace/RIB lines\n"
      "                             (skip + count to stderr) instead of\n"
      "                             aborting; strict is the default\n"
      "      --checkpoint-dir DIR   write a resumable checkpoint into DIR at\n"
      "                             run boundaries (crash-safe; see --resume)\n"
      "      --resume DIR           restore the checkpoint in DIR and\n"
      "                             continue; output is byte-identical to an\n"
      "                             uninterrupted run (any thread count)\n"
      "      --checkpoint-interval SECS\n"
      "                             min seconds between boundary checkpoint\n"
      "                             writes (default 30; 0 = every boundary;\n"
      "                             stopping always writes)\n"
      "      --deadline SECS        wall-clock budget; on expiry checkpoint\n"
      "                             and exit 5 (requires --checkpoint-dir)\n"
      "      --memory-budget MB     peak-RSS budget; on breach checkpoint\n"
      "                             and exit 5 (requires --checkpoint-dir)\n"
      "      --stop-after N         checkpoint and exit 5 after N run\n"
      "                             boundaries (deterministic interruption\n"
      "                             for tests/CI resume matrices)\n"
      "  mapit eval --inferences FILE --truth FILE [--target ASN]\n"
      "  mapit paths --traces FILE --rib FILE [run options] [--limit N]\n"
      "  mapit stats --traces FILE [--threads N]\n"
      "  mapit simulate --out DIR [--seed N] [--scale small|standard]\n"
      "  mapit sweep [--rates R,R,...] [--seeds N,N,...] [--out FILE]\n"
      "      differential baseline sweep: MAP-IT vs the Simple and\n"
      "      Convention heuristics over an artifact-rate x seed grid;\n"
      "      emits a deterministic JSON report (default rates 0,0.5,1\n"
      "      and seeds 7,9)\n"
      "      --state FILE           resumable cell state (atomic rewrite\n"
      "                             per cell; stale grids are discarded)\n"
      "      --baseline FILE        compare against a committed report;\n"
      "                             any integer-field drift exits 1\n"
      "      --threads N            engine workers (output-invariant)\n"
      "  mapit snapshot --traces FILE --rib FILE --out SNAPSHOT [run options]\n"
      "      runs MAP-IT and writes the mmap-ready binary snapshot (byte-\n"
      "      deterministic for identical inputs, any thread count)\n"
      "  mapit query SNAPSHOT\n"
      "      one query per stdin line, one answer per stdout line:\n"
      "        lookup <addr> <f|b> | addr <addr> | ip2as <addr> [f|b]\n"
      "        | links <asn> <asn> | stats\n"
      "  mapit serve SNAPSHOT [--port N] [server options]\n"
      "      TCP server for the same line protocol on 127.0.0.1:N\n"
      "      (default: an ephemeral port, printed on stderr)\n"
      "      --async                epoll event-loop server instead of the\n"
      "                             thread-per-connection one; also speaks\n"
      "                             the length-prefixed binary protocol\n"
      "                             (connections starting with \"MQB1\")\n"
      "      --reuseport            SO_REUSEPORT: run N processes on one\n"
      "                             port, kernel load-balances connections\n"
      "      --backlog N            listen(2) backlog (default: SOMAXCONN)\n"
      "      --idle-timeout SECS    close connections idle this long\n"
      "                             (default 300, 0 = never)\n"
      "      --send-timeout SECS    drop a connection whose blocked send\n"
      "                             stalls this long (blocking server only;\n"
      "                             default: --idle-timeout)\n"
      "      --max-connections N    refuse clients past N live connections\n"
      "                             with an ERR line (default 256)\n"
      "      --max-line BYTES       answer ERR to longer request lines\n"
      "                             instead of buffering them (default 1MiB)\n"
      "      --watch-interval SECS  poll SNAPSHOT for replacement every\n"
      "                             SECS seconds and hot-swap to the new\n"
      "                             version without dropping connections\n"
      "                             (default 2; 0 disables watching)\n"
      "      --max-inflight BYTES   load shedding: past BYTES of answer\n"
      "                             data in flight, new requests are\n"
      "                             answered `ERR overloaded retry` and\n"
      "                             closed (default 0 = unlimited)\n"
      "      answers HEALTH probe lines itself; SIGTERM/SIGINT drain\n"
      "      gracefully (in-flight batches are answered first); SIGHUP\n"
      "      forces an immediate snapshot re-check\n"
      "  mapit ingest --traces FILE --rib FILE --journal FILE --out SNAPSHOT\n"
      "      streaming ingestion: load the base corpus once, then fold\n"
      "      delta traces incrementally and republish SNAPSHOT after each\n"
      "      batch; deltas are preserved in an append-only crash-safe\n"
      "      journal and replayed on restart, so the published snapshot is\n"
      "      always byte-identical to a cold run over base+deltas\n"
      "      [--relationships/--as2org/--ixps/--f/--remove-rule/--no-stub/\n"
      "       --no-siblings/--threads/--lenient as for `mapit run`]\n"
      "      --follow FILE          tail an append-only delta corpus file\n"
      "      --listen PORT          accept MDP1 framed batches from `mapit\n"
      "                             send` on 127.0.0.1:PORT (0 = ephemeral,\n"
      "                             printed on stderr together with the base\n"
      "                             fingerprint); requires --secret-file;\n"
      "                             non-MDP1 bytes are refused with one ERR\n"
      "                             line and a clean close\n"
      "      --listen-plain PORT    legacy loopback listener: raw newline-\n"
      "                             delimited delta lines, no auth, no\n"
      "                             delivery guarantees across disconnects\n"
      "      --secret-file FILE     shared HMAC secret for --listen\n"
      "                             (trailing newline stripped)\n"
      "      --heartbeat SECS       MDP1 idle heartbeat cadence (default 2;\n"
      "                             0 disables)\n"
      "      --deadline SECS        drop an MDP1 peer silent this long\n"
      "                             (default 15; 0 disables)\n"
      "      --max-inflight N       per-connection unACKed batch quota\n"
      "                             (default 8)\n"
      "      --batch-lines N        fold after N pending lines (default\n"
      "                             1000)\n"
      "      --batch-seconds SECS   ...or SECS after the first pending\n"
      "                             line (default 5; 0 = count-only)\n"
      "      --poll-interval SECS   source poll cadence (default 0.2)\n"
      "      --drain                consume what the sources have now,\n"
      "                             flush, publish, exit (batch mode)\n"
      "      --max-batches N        stop after N batch commits\n"
      "      --retry-interval SECS  degraded mode: a journal/publish I/O\n"
      "                             failure (ENOSPC, EIO) parks the batch\n"
      "                             and retries it every SECS while the\n"
      "                             sources keep being tailed (default 1)\n"
      "      --max-pending N        pause source polling past N accepted\n"
      "                             but unflushed lines while degraded\n"
      "                             (default: 10x --batch-lines)\n"
      "      --health-port N        answer `OK degraded=...` probes on\n"
      "                             127.0.0.1:N (0 = ephemeral; the\n"
      "                             supervise probe target)\n"
      "      SIGTERM/SIGINT flush pending accepted lines as a final batch\n"
      "      before exiting; rerunning resumes from the journal\n"
      "  mapit send --file FILE --port N --session NAME --secret-file FILE\n"
      "      ship a delta trace file to a remote `mapit ingest --listen`\n"
      "      over MDP1: length-prefixed, CRC-framed, HMAC-authenticated\n"
      "      batches with exactly-once delivery — an ACK names journal-\n"
      "      durable state, so a sender killed and restarted at any point\n"
      "      resumes from the receiver's watermark without loss or\n"
      "      duplication\n"
      "      --host HOST            receiver address (default 127.0.0.1)\n"
      "      --expect-base HEX      require the receiver's base fingerprint\n"
      "                             to match (as `ingest --listen` logs;\n"
      "                             mismatch exits 7 before sending)\n"
      "      --follow               keep tailing FILE after EOF (default:\n"
      "                             drain and exit once everything is ACKed)\n"
      "      --batch-lines N        cut a batch at N lines (default 256)\n"
      "      --batch-seconds SECS   ...or when the oldest pending line is\n"
      "                             this old (default 0.5)\n"
      "      --poll-interval SECS   tailer poll cadence when idle\n"
      "                             (default 0.05)\n"
      "      --window N             max unACKed batches in flight\n"
      "                             (default 8)\n"
      "      --max-attempts N       give up after N consecutive failed\n"
      "                             connection attempts (exit 8; default\n"
      "                             0 = retry forever with capped\n"
      "                             exponential backoff)\n"
      "      --heartbeat SECS       idle heartbeat cadence (default 2;\n"
      "                             0 disables)\n"
      "      --deadline SECS        reconnect when the receiver is silent\n"
      "                             this long (default 15; 0 disables)\n"
      "  mapit supervise SPEC\n"
      "      fork/exec and babysit a worker fleet (serve workers sharing a\n"
      "      --reuseport port + an ingest process) from a declarative SPEC\n"
      "      file: `worker <name> [probe=PORT] <argv...>` lines plus\n"
      "      optional `set <key> <value>` lines (restart-base-ms,\n"
      "      restart-cap-ms, breaker-restarts, breaker-window-s,\n"
      "      probe-interval-s, probe-timeout-s, probe-misses,\n"
      "      probe-grace-s, drain-s). Crashed workers restart with capped\n"
      "      exponential backoff; a live PID that stops answering HEALTH\n"
      "      on its probe port is killed and restarted; breaker-restarts\n"
      "      exits within breaker-window-s abandon that worker (exit 6\n"
      "      at shutdown) while the rest keep serving. SIGTERM/SIGINT\n"
      "      cascade a bounded graceful drain; SIGHUP is forwarded\n"
      "      --restart-base-ms/--restart-cap-ms/--breaker-restarts/\n"
      "      --breaker-window/--probe-interval/--probe-timeout/\n"
      "      --probe-misses/--probe-grace/--drain override the spec\n"
      "  mapit help\n"
      "\n"
      "exit codes (shared by every subcommand; see README):\n"
      "  0  success\n"
      "  2  usage error: bad flags or arguments\n"
      "  3  load/parse error: unreadable or malformed input file, or an\n"
      "     unrecoverable runtime failure outside the families below\n"
      "  4  checkpoint/journal mismatch or corruption (foreign base inputs,\n"
      "     torn non-tail frames, bad CRCs)\n"
      "  5  interrupted by signal/deadline/memory budget; resumable state\n"
      "     (checkpoint or journal) was flushed first\n"
      "  6  supervise ended with at least one worker abandoned by the\n"
      "     crash-loop breaker\n"
      "  7  send was rejected at the MDP1 handshake: wrong secret or base\n"
      "     fingerprint mismatch (retrying cannot help; nothing was\n"
      "     journaled)\n"
      "  8  send exhausted --max-attempts without completing a handshake\n"
      "     (transient transport failure; retrying may help)\n";
  std::exit(exit_code);
}

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) tokens_.emplace_back(argv[i]);
  }

  std::optional<std::string> value(const std::string& flag) {
    for (std::size_t i = 0; i + 1 < tokens_.size(); ++i) {
      if (tokens_[i] == flag) {
        used_[i] = used_[i + 1] = true;
        return tokens_[i + 1];
      }
    }
    return std::nullopt;
  }

  bool flag(const std::string& name) {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i] == name) {
        used_[i] = true;
        return true;
      }
    }
    return false;
  }

  /// Claims the first still-unclaimed token as a positional argument.
  /// Call after every value()/flag() lookup so flag values are not
  /// mistaken for positionals.
  std::optional<std::string> positional() {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (!used_.contains(i)) {
        used_[i] = true;
        return tokens_[i];
      }
    }
    return std::nullopt;
  }

  void reject_unknown() const {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (!used_.contains(i)) {
        std::cerr << "unknown argument: " << tokens_[i] << "\n";
        usage(kExitUsage);
      }
    }
  }

 private:
  std::vector<std::string> tokens_;
  std::unordered_map<std::size_t, bool> used_;
};

/// Generic bounded unsigned flag parse shared by --threads/--port/etc.
std::optional<unsigned long> parse_bounded(const std::string& value,
                                           unsigned long max) {
  std::size_t pos = 0;
  unsigned long parsed = 0;
  try {
    parsed = std::stoul(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || parsed > max) return std::nullopt;
  return parsed;
}

unsigned parse_threads(Args& args) {
  unsigned threads = 0;  // 0 = one worker per hardware thread
  if (const auto value = args.value("--threads")) {
    const auto parsed = parse_bounded(*value, 1024);
    if (!parsed) {
      std::cerr << "--threads expects an integer in [0, 1024], got '" << *value
                << "'\n";
      std::exit(kExitUsage);
    }
    threads = static_cast<unsigned>(*parsed);
  }
  return threads;
}

/// Non-negative seconds flag (fractions allowed: "--deadline 0.5").
double parse_seconds_or_die(const char* flag, const std::string& value) {
  std::size_t pos = 0;
  double parsed = -1;
  try {
    parsed = std::stod(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || !(parsed >= 0)) {
    std::cerr << flag << " expects non-negative seconds, got '" << value
              << "'\n";
    std::exit(kExitUsage);
  }
  return parsed;
}

/// Parses the engine options shared by run/paths/snapshot/ingest:
/// --f, --remove-rule, --no-stub, --no-siblings, --threads.
core::Options parse_engine_options(Args& args) {
  core::Options options;
  if (const auto f = args.value("--f")) {
    // Strict parse: std::stod would accept "0.5x" and abort the process on
    // "abc" with a raw std::invalid_argument.
    std::size_t pos = 0;
    double parsed = -1;
    try {
      parsed = std::stod(*f, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != f->size() || !(parsed >= 0.0) || !(parsed <= 1.0)) {
      std::cerr << "--f expects a fraction in [0, 1], got '" << *f << "'\n";
      std::exit(kExitUsage);
    }
    options.f = parsed;
  }
  if (const auto rule = args.value("--remove-rule")) {
    if (*rule == "majority") {
      options.remove_rule = core::RemoveRule::kMajority;
    } else if (*rule == "add") {
      options.remove_rule = core::RemoveRule::kAddRule;
    } else {
      std::cerr << "unknown remove rule '" << *rule << "'\n";
      std::exit(kExitUsage);
    }
  }
  options.stub_heuristic = !args.flag("--no-stub");
  options.sibling_grouping = !args.flag("--no-siblings");
  options.threads = parse_threads(args);
  return options;
}

std::ifstream open_or_die(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) {
    std::cerr << "cannot open " << path << "\n";
    std::exit(kExitLoadError);
  }
  return stream;
}

/// Reads the MDP1 shared secret: whole file, trailing newline stripped —
/// so `echo secret > file` and a binary key both work.
std::string read_secret_or_die(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    std::cerr << "cannot open secret file " << path << "\n";
    std::exit(kExitLoadError);
  }
  std::ostringstream contents;
  contents << stream.rdbuf();
  std::string secret = contents.str();
  while (!secret.empty() &&
         (secret.back() == '\n' || secret.back() == '\r')) {
    secret.pop_back();
  }
  if (secret.empty()) {
    std::cerr << "secret file " << path << " is empty\n";
    std::exit(kExitUsage);
  }
  return secret;
}

/// Prints a lenient-load summary to stderr when lines were quarantined.
void report_quarantine(const char* what, const mapit::LoadReport& report) {
  const std::string summary = report.summary(what);
  if (!summary.empty()) std::cerr << summary;
}

/// Checkpointing configuration shared by run/snapshot (absent = plain,
/// unsupervised run).
struct CheckpointSetup {
  std::string dir;          ///< --checkpoint-dir or --resume target
  bool resume = false;      ///< restore dir's checkpoint before running
  double interval_seconds = 30;  ///< min seconds between boundary writes
  core::CheckpointMeta meta;     ///< this invocation's identity
};

/// Everything the `run`-shaped subcommands (run, snapshot) share: datasets
/// loaded, traces sanitized, interface graph and IP2AS composite built.
/// Later members reference earlier ones (ip2as points at ixps), so the
/// struct is heap-held and immovable once built.
struct RunPipeline {
  core::Options options;
  std::optional<CheckpointSetup> checkpoint;
  core::SupervisorOptions supervisor;
  bgp::Rib rib;
  asdata::AsRelationships rels;
  asdata::As2Org orgs;
  asdata::IxpRegistry ixps;
  std::unique_ptr<graph::InterfaceGraph> graph;
  std::unique_ptr<bgp::Ip2As> ip2as;

  [[nodiscard]] core::Result run() const {
    return core::run_mapit(*graph, *ip2as, orgs, rels, options);
  }
};

/// Parses the shared run options out of `args` and builds the pipeline.
/// The caller must have claimed its subcommand-specific flags already:
/// this calls reject_unknown() before doing any heavy work.
std::unique_ptr<RunPipeline> build_run_pipeline(Args& args, const char* verb) {
  const auto traces_path = args.value("--traces");
  const auto rib_path = args.value("--rib");
  if (!traces_path || !rib_path) {
    std::cerr << verb << ": --traces and --rib are required\n";
    usage(kExitUsage);
  }

  auto pipeline = std::make_unique<RunPipeline>();
  core::Options& options = pipeline->options;
  options = parse_engine_options(args);
  const bool lenient = args.flag("--lenient");
  const auto relationships_path = args.value("--relationships");
  const auto as2org_path = args.value("--as2org");
  const auto ixps_path = args.value("--ixps");

  const auto checkpoint_dir = args.value("--checkpoint-dir");
  const auto resume_dir = args.value("--resume");
  if (checkpoint_dir && resume_dir) {
    std::cerr << verb << ": --checkpoint-dir and --resume are mutually "
                         "exclusive (--resume keeps checkpointing into its "
                         "own directory)\n";
    usage(kExitUsage);
  }
  if (checkpoint_dir || resume_dir) {
    CheckpointSetup setup;
    setup.dir = resume_dir ? *resume_dir : *checkpoint_dir;
    setup.resume = resume_dir.has_value();
    if (const auto value = args.value("--checkpoint-interval")) {
      setup.interval_seconds =
          parse_seconds_or_die("--checkpoint-interval", *value);
    }
    pipeline->checkpoint = std::move(setup);
  } else if (args.value("--checkpoint-interval")) {
    std::cerr << verb << ": --checkpoint-interval requires --checkpoint-dir "
                         "or --resume\n";
    usage(kExitUsage);
  }
  if (const auto value = args.value("--deadline")) {
    pipeline->supervisor.deadline_seconds =
        parse_seconds_or_die("--deadline", *value);
  }
  if (const auto value = args.value("--memory-budget")) {
    const auto parsed = parse_bounded(*value, 1UL << 30);
    if (!parsed || *parsed == 0) {
      std::cerr << "--memory-budget expects MiB in [1, 2^30], got '" << *value
                << "'\n";
      std::exit(kExitUsage);
    }
    pipeline->supervisor.memory_budget_mb = *parsed;
  }
  if (const auto value = args.value("--stop-after")) {
    const auto parsed = parse_bounded(*value, 1UL << 20);
    if (!parsed || *parsed == 0) {
      std::cerr << "--stop-after expects a boundary count in [1, 2^20], "
                   "got '" << *value << "'\n";
      std::exit(kExitUsage);
    }
    pipeline->supervisor.boundary_limit = static_cast<int>(*parsed);
  }
  if (!pipeline->checkpoint &&
      (pipeline->supervisor.deadline_seconds > 0 ||
       pipeline->supervisor.memory_budget_mb > 0 ||
       pipeline->supervisor.boundary_limit > 0)) {
    std::cerr << verb << ": --deadline/--memory-budget/--stop-after perform "
                         "a graceful checkpoint-and-exit and therefore "
                         "require --checkpoint-dir (or --resume)\n";
    usage(kExitUsage);
  }
  args.reject_unknown();

  LoadReport trace_report;
  LoadReport rib_report;
  auto traces_stream = open_or_die(*traces_path);
  graph::LoadedGraph loaded = graph::read_graph(
      traces_stream, options.threads, lenient ? &trace_report : nullptr);
  auto rib_stream = open_or_die(*rib_path);
  pipeline->rib = bgp::Rib::read(rib_stream, lenient ? &rib_report : nullptr);
  if (lenient) {
    report_quarantine("traces", trace_report);
    report_quarantine("rib", rib_report);
  }

  if (relationships_path) {
    auto stream = open_or_die(*relationships_path);
    pipeline->rels = asdata::AsRelationships::read(stream);
  }
  if (as2org_path) {
    auto stream = open_or_die(*as2org_path);
    pipeline->orgs = asdata::As2Org::read(stream);
  }
  if (ixps_path) {
    auto stream = open_or_die(*ixps_path);
    pipeline->ixps = asdata::IxpRegistry::read(stream);
  }

  if (pipeline->checkpoint) {
    // Identity of this invocation: any change to the engine options or to
    // the raw input bytes between checkpoint and resume must be caught, so
    // fingerprint the files themselves (cheap next to the run).
    CheckpointSetup& setup = *pipeline->checkpoint;
    setup.meta.config_hash = core::config_hash(options);
    setup.meta.corpus_fingerprint = core::fingerprint_file(*traces_path);
    setup.meta.rib_fingerprint = core::fingerprint_file(*rib_path);
    std::uint64_t datasets = core::kFingerprintSeed;
    for (const auto& optional_path :
         {relationships_path, as2org_path, ixps_path}) {
      // Presence markers keep "no file" distinct from "empty file" and from
      // the same bytes arriving under a different dataset slot.
      datasets = core::fingerprint_bytes(datasets, optional_path ? "+" : "-");
      if (optional_path) {
        datasets = core::fingerprint_file(*optional_path, datasets);
      }
    }
    setup.meta.datasets_fingerprint = datasets;
  }

  const trace::SanitizeStats& stats = loaded.stats;
  std::cerr << "sanitized " << stats.input_traces << " traces ("
            << stats.discarded_traces << " discarded, "
            << stats.removed_ttl0_hops << " TTL=0 hops removed)\n";

  pipeline->graph =
      std::make_unique<graph::InterfaceGraph>(std::move(loaded.graph));
  pipeline->ip2as = std::make_unique<bgp::Ip2As>(
      pipeline->rib, net::PrefixTrie<asdata::Asn>{}, &pipeline->ixps);
  std::cerr << "interface graph: " << pipeline->graph->size()
            << " interfaces\n";
  return pipeline;
}

/// A supervised engine run: either a finished Result, or the StopReason a
/// graceful checkpoint-and-exit was triggered by (exit code 5).
struct EngineRunResult {
  std::optional<core::Result> result;
  core::StopReason stop = core::StopReason::kNone;
};

/// Runs the engine for run/snapshot. Without checkpointing this is a plain
/// run(); with it, a SignalGuard + RunSupervisor watch the run, every
/// boundary may persist a crash-safe checkpoint (throttled by
/// --checkpoint-interval; a stop always writes), --resume restores and
/// continues, and completion deletes the now-stale checkpoint file.
EngineRunResult run_engine(const RunPipeline& pipeline) {
  EngineRunResult out;
  if (!pipeline.checkpoint) {
    out.result = pipeline.run();
    return out;
  }
  const CheckpointSetup& setup = *pipeline.checkpoint;
  const std::string path = core::checkpoint_path(setup.dir);
  std::filesystem::create_directories(setup.dir);

  core::Engine engine(*pipeline.graph, *pipeline.ip2as, pipeline.orgs,
                      pipeline.rels, pipeline.options);
  core::SignalGuard signals;
  core::RunSupervisor supervisor(pipeline.supervisor, &signals);

  core::RunControl control;
  std::string resume_blob;
  if (setup.resume) {
    core::Checkpoint restored = core::read_checkpoint(path);
    core::verify_checkpoint_meta(setup.meta, restored.meta);
    resume_blob = std::move(restored.engine_state);
    control.resume_state = &resume_blob;
    control.resume_boundary = restored.boundary;
    std::cerr << "resuming from " << path << " (" << restored.iterations_done
              << " iterations done, paused "
              << (restored.boundary == core::RunBoundary::kAfterAddStep
                      ? "after an add step"
                      : "after an iteration")
              << ")\n";
  }

  auto last_write = std::chrono::steady_clock::now();
  std::size_t checkpoints_written = 0;
  control.on_boundary = [&](core::RunBoundary boundary, int iterations) {
    supervisor.note_boundary();
    const core::StopReason stop = supervisor.should_stop();
    const bool stopping = stop != core::StopReason::kNone;
    const auto now = std::chrono::steady_clock::now();
    const bool interval_elapsed =
        setup.interval_seconds <= 0 ||
        std::chrono::duration<double>(now - last_write).count() >=
            setup.interval_seconds;
    if (stopping || interval_elapsed) {
      core::Checkpoint checkpoint;
      checkpoint.meta = setup.meta;
      checkpoint.boundary = boundary;
      checkpoint.iterations_done = iterations;
      checkpoint.engine_state = engine.save_state();
      core::write_checkpoint(path, checkpoint);
      last_write = now;
      ++checkpoints_written;
    }
    if (stopping) out.stop = stop;
    return !stopping;
  };

  core::RunOutcome outcome = engine.run_controlled(control);
  if (outcome.completed()) {
    out.result = std::move(*outcome.result);
    out.stop = core::StopReason::kNone;
    // The run finished; its outputs supersede the checkpoint. Removal is
    // best-effort — a stale checkpoint is rejected-at-worst, never wrong.
    std::error_code ec;
    std::filesystem::remove(path, ec);
  } else {
    std::cerr << "run stopped (" << core::to_string(out.stop) << ") after "
              << outcome.iterations_done << " iterations; checkpoint "
              << (checkpoints_written > 0 ? "written to " : "expected at ")
              << path << " — resume with --resume " << setup.dir << "\n";
  }
  return out;
}

int cmd_run(Args& args) {
  const auto output_path = args.value("--output");
  const auto uncertain_path = args.value("--uncertain");
  const auto explain_address = args.value("--explain");
  const auto pipeline = build_run_pipeline(args, "run");

  EngineRunResult run = run_engine(*pipeline);
  if (!run.result) return kExitInterrupted;
  const core::Result result = std::move(*run.result);
  std::cerr << "MAP-IT: " << result.inferences.size()
            << " confident inferences, " << result.uncertain.size()
            << " uncertain, " << result.stats.iterations << " iterations"
            << (result.stats.converged ? "" : " (iteration cap hit!)") << "\n";

  // File outputs are written crash-safely (tmp + fsync + atomic rename): a
  // kill mid-write leaves the previous complete file, never a torn one.
  if (output_path) {
    core::write_inferences_file(*output_path, result.inferences);
  } else {
    core::write_inferences(std::cout, result.inferences);
  }
  if (uncertain_path) {
    core::write_inferences_file(*uncertain_path, result.uncertain);
  }
  if (explain_address) {
    std::cerr << core::explain(
        result, *pipeline->graph, *pipeline->ip2as,
        net::Ipv4Address::parse_or_throw(*explain_address));
  }
  return kExitOk;
}

int cmd_snapshot(Args& args) {
  const auto out_path = args.value("--out");
  if (!out_path) {
    std::cerr << "snapshot: --out is required\n";
    usage(kExitUsage);
  }
  const auto pipeline = build_run_pipeline(args, "snapshot");

  EngineRunResult run = run_engine(*pipeline);
  if (!run.result) return kExitInterrupted;
  const core::Result result = std::move(*run.result);
  const store::SnapshotData data =
      store::make_snapshot_data(result, *pipeline->graph, *pipeline->ip2as);
  const store::WriteInfo info = store::write_snapshot_file(data, *out_path);

  char crc_hex[9];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", info.payload_crc32);
  std::cout << "snapshot " << *out_path << ": " << info.bytes
            << " bytes, crc32 " << crc_hex << ", "
            << result.inferences.size() << " inferences ("
            << result.uncertain.size() << " uncertain), " << data.links.size()
            << " links, " << data.bgp_prefixes.size() << " prefixes, "
            << data.mappings.size() << " mappings\n";
  return kExitOk;
}

int cmd_query(Args& args) {
  const auto snapshot_path = args.positional();
  if (!snapshot_path) {
    std::cerr << "query: snapshot path is required\n";
    usage(kExitUsage);
  }
  args.reject_unknown();

  const store::SnapshotReader reader = store::SnapshotReader::open(
      *snapshot_path);
  const query::QueryEngine engine(reader);
  std::string line;
  std::string out;
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    out += engine.answer(line);
    out += '\n';
    // Flush in chunks so interactive use stays responsive while huge
    // batches still amortize the write syscalls.
    if (out.size() >= 64 * 1024) {
      std::cout << out;
      out.clear();
    }
  }
  std::cout << out << std::flush;
  return 0;
}

int cmd_serve(Args& args) {
  const auto snapshot_path = args.positional();
  if (!snapshot_path) {
    std::cerr << "serve: snapshot path is required\n";
    usage(kExitUsage);
  }
  query::ServerOptions server_options;
  server_options.idle_timeout = std::chrono::seconds(300);
  if (const auto value = args.value("--port")) {
    const auto parsed = parse_bounded(*value, 65535);
    if (!parsed) {
      std::cerr << "--port expects an integer in [0, 65535], got '" << *value
                << "'\n";
      return kExitUsage;
    }
    server_options.port = static_cast<std::uint16_t>(*parsed);
  }
  if (const auto value = args.value("--idle-timeout")) {
    const auto parsed = parse_bounded(*value, 86400);
    if (!parsed) {
      std::cerr << "--idle-timeout expects seconds in [0, 86400], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    server_options.idle_timeout = std::chrono::seconds(*parsed);
  }
  if (const auto value = args.value("--max-connections")) {
    const auto parsed = parse_bounded(*value, 65536);
    if (!parsed || *parsed == 0) {
      std::cerr << "--max-connections expects an integer in [1, 65536], "
                   "got '" << *value << "'\n";
      return kExitUsage;
    }
    server_options.max_connections = *parsed;
  }
  if (const auto value = args.value("--max-line")) {
    const auto parsed = parse_bounded(*value, 1UL << 30);
    if (!parsed || *parsed == 0) {
      std::cerr << "--max-line expects bytes in [1, 2^30], got '" << *value
                << "'\n";
      return kExitUsage;
    }
    server_options.max_line_bytes = *parsed;
  }
  if (const auto value = args.value("--send-timeout")) {
    const auto parsed = parse_bounded(*value, 86400);
    if (!parsed) {
      std::cerr << "--send-timeout expects seconds in [0, 86400], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    server_options.send_timeout = std::chrono::seconds(*parsed);
  }
  if (const auto value = args.value("--backlog")) {
    const auto parsed = parse_bounded(*value, 65536);
    if (!parsed || *parsed == 0) {
      std::cerr << "--backlog expects an integer in [1, 65536], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    server_options.backlog = static_cast<int>(*parsed);
  }
  if (const auto value = args.value("--max-inflight")) {
    const auto parsed = parse_bounded(*value, 1UL << 34);
    if (!parsed) {
      std::cerr << "--max-inflight expects bytes in [0, 2^34], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    server_options.max_inflight_bytes = *parsed;
  }
  server_options.reuse_port = args.flag("--reuseport");
  const bool use_async = args.flag("--async");
  unsigned long watch_interval = 2;
  if (const auto value = args.value("--watch-interval")) {
    const auto parsed = parse_bounded(*value, 86400);
    if (!parsed) {
      std::cerr << "--watch-interval expects seconds in [0, 86400], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    watch_interval = *parsed;
  }
  args.reject_unknown();

  query::SnapshotHub hub(*snapshot_path);
  // Both servers expose the same surface; run whichever under the same
  // signal-drain scaffolding.
  const auto run = [&](auto& server) {
    {
      const auto snapshot = hub.current();
      std::cerr << "serving " << *snapshot_path << " on 127.0.0.1:"
                << server.port() << (use_async ? " (async)" : "") << " ("
                << snapshot->reader.inferences().size()
                << " inference records, " << snapshot->reader.size_bytes()
                << " bytes mmap'd)\n";
    }

    // The watcher polls the snapshot path and hot-swaps new versions in;
    // running queries keep their pinned generation, new batches see the
    // fresh one. A snapshot that fails to validate keeps the old one.
    std::atomic<bool> watch_stop{false};
    std::thread watcher;
    if (watch_interval > 0) {
      watcher = std::thread([&] {
        while (!watch_stop.load()) {
          for (unsigned long slept = 0;
               slept < watch_interval * 10 && !watch_stop.load(); ++slept) {
            std::this_thread::sleep_for(std::chrono::milliseconds{100});
          }
          if (watch_stop.load()) break;
          if (hub.refresh()) {
            std::cerr << "snapshot replaced; now serving generation "
                      << hub.current()->generation << "\n";
          }
        }
      });
    }

    // SIGTERM/SIGINT drain the server gracefully (in-flight batches are
    // answered, then connections close) instead of killing it mid-send.
    // SIGHUP forces an immediate snapshot re-check (the operator just
    // republished and does not want to wait out --watch-interval). The
    // drain thread blocks on the signal guard's self-pipe; when
    // serve_forever() returns for any other reason, `done` + wake() send
    // it home — `done` first, because a SIGHUP can consume the wake byte.
    core::SignalGuard signals;
    std::atomic<bool> done{false};
    std::thread drain([&] {
      std::uint64_t seen_hups = 0;
      while (true) {
        const int signal_number = signals.wait();
        if (signal_number != 0) {
          std::cerr << "received "
                    << (signal_number == SIGTERM ? "SIGTERM" : "SIGINT")
                    << ", draining connections...\n";
          server.stop();
          return;
        }
        if (done.load()) return;
        const std::uint64_t hups = core::SignalGuard::hup_count();
        if (hups != seen_hups) {
          seen_hups = hups;
          std::cerr << "received SIGHUP, re-checking snapshot...\n";
          if (hub.refresh()) {
            std::cerr << "snapshot replaced; now serving generation "
                      << hub.current()->generation << "\n";
          }
        }
      }
    });
    server.serve_forever();
    done.store(true);
    signals.wake();
    drain.join();
    watch_stop.store(true);
    if (watcher.joinable()) watcher.join();
    if (core::SignalGuard::signal_received() != 0) {
      std::cerr << "drained; exiting\n";
    }
    return kExitOk;
  };
  if (use_async) {
    query::AsyncServer server(hub, server_options);
    return run(server);
  }
  query::LineServer server(hub, server_options);
  return run(server);
}

int cmd_ingest(Args& args) {
  ingest::IngestOptions options;
  const auto traces_path = args.value("--traces");
  const auto rib_path = args.value("--rib");
  const auto journal_path = args.value("--journal");
  const auto out_path = args.value("--out");
  if (!traces_path || !rib_path || !journal_path || !out_path) {
    std::cerr << "ingest: --traces, --rib, --journal and --out are "
                 "required\n";
    usage(kExitUsage);
  }
  options.traces_path = *traces_path;
  options.rib_path = *rib_path;
  options.journal_path = *journal_path;
  options.out_path = *out_path;
  options.engine_options = parse_engine_options(args);
  options.lenient = args.flag("--lenient");
  if (const auto value = args.value("--relationships")) {
    options.relationships_path = *value;
  }
  if (const auto value = args.value("--as2org")) options.as2org_path = *value;
  if (const auto value = args.value("--ixps")) options.ixps_path = *value;
  if (const auto value = args.value("--follow")) options.follow_path = *value;
  if (const auto value = args.value("--listen")) {
    const auto parsed = parse_bounded(*value, 65535);
    if (!parsed) {
      std::cerr << "--listen expects a port in [0, 65535], got '" << *value
                << "'\n";
      return kExitUsage;
    }
    options.listen_port = static_cast<int>(*parsed);
  }
  if (const auto value = args.value("--listen-plain")) {
    const auto parsed = parse_bounded(*value, 65535);
    if (!parsed) {
      std::cerr << "--listen-plain expects a port in [0, 65535], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    options.listen_plain_port = static_cast<int>(*parsed);
  }
  if (const auto value = args.value("--secret-file")) {
    options.secret = read_secret_or_die(*value);
  }
  if (const auto value = args.value("--heartbeat")) {
    options.transport_heartbeat_seconds =
        parse_seconds_or_die("--heartbeat", *value);
  }
  if (const auto value = args.value("--deadline")) {
    options.transport_deadline_seconds =
        parse_seconds_or_die("--deadline", *value);
  }
  if (const auto value = args.value("--max-inflight")) {
    const auto parsed = parse_bounded(*value, 1UL << 16);
    if (!parsed || *parsed == 0) {
      std::cerr << "--max-inflight expects an integer in [1, 2^16], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    options.max_inflight_batches = *parsed;
  }
  if (const auto value = args.value("--batch-lines")) {
    const auto parsed = parse_bounded(*value, 1UL << 24);
    if (!parsed || *parsed == 0) {
      std::cerr << "--batch-lines expects an integer in [1, 2^24], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    options.batch_lines = *parsed;
  }
  if (const auto value = args.value("--batch-seconds")) {
    options.batch_seconds = parse_seconds_or_die("--batch-seconds", *value);
  }
  if (const auto value = args.value("--poll-interval")) {
    options.poll_interval = parse_seconds_or_die("--poll-interval", *value);
  }
  options.drain = args.flag("--drain");
  if (const auto value = args.value("--max-batches")) {
    const auto parsed = parse_bounded(*value, 1UL << 30);
    if (!parsed || *parsed == 0) {
      std::cerr << "--max-batches expects an integer in [1, 2^30], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    options.max_batches = *parsed;
  }
  if (const auto value = args.value("--retry-interval")) {
    options.retry_interval = parse_seconds_or_die("--retry-interval", *value);
  }
  if (const auto value = args.value("--max-pending")) {
    const auto parsed = parse_bounded(*value, 1UL << 30);
    if (!parsed || *parsed == 0) {
      std::cerr << "--max-pending expects an integer in [1, 2^30], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    options.max_pending_lines = *parsed;
  }
  if (const auto value = args.value("--health-port")) {
    const auto parsed = parse_bounded(*value, 65535);
    if (!parsed) {
      std::cerr << "--health-port expects a port in [0, 65535], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    options.health_port = static_cast<int>(*parsed);
  }
  args.reject_unknown();
  if (options.listen_port >= 0 && options.secret.empty()) {
    std::cerr << "ingest: --listen speaks the authenticated MDP1 transport "
                 "and requires --secret-file; use --listen-plain for the "
                 "legacy loopback line protocol\n";
    usage(kExitUsage);
  }
  if (options.follow_path.empty() && options.listen_port < 0 &&
      options.listen_plain_port < 0 && !options.drain) {
    std::cerr << "ingest: need --follow, --listen and/or --listen-plain "
                 "(or --drain to just replay the journal and republish)\n";
    usage(kExitUsage);
  }
  options.log = &std::cerr;

  // SIGTERM/SIGINT flush the pending accepted lines as a final batch and
  // end the session; the journal makes the next run resume seamlessly.
  // The watcher loops because SIGHUP also wakes wait() (and means nothing
  // to ingest) — a HUP must not disarm the TERM handler.
  core::SignalGuard signals;
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    while (true) {
      const int signal_number = signals.wait();
      if (signal_number != 0) {
        std::cerr << "received "
                  << (signal_number == SIGTERM ? "SIGTERM" : "SIGINT")
                  << ", flushing pending deltas...\n";
        stop.store(true);
        return;
      }
      if (done.load()) return;
    }
  });
  ingest::IngestStats stats;
  try {
    stats = ingest::run_ingest(options, &stop);
  } catch (...) {
    done.store(true);
    signals.wake();
    watcher.join();
    throw;
  }
  done.store(true);
  signals.wake();
  watcher.join();

  char crc_hex[9];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", stats.snapshot_crc);
  std::cerr << "ingest done: replayed " << stats.replayed_traces
            << ", folded " << stats.folded_traces << " traces in "
            << stats.batches << " batches (" << stats.quarantined
            << " quarantined), " << stats.publishes
            << " publishes, last crc32 " << crc_hex << "\n";
  return core::SignalGuard::signal_received() != 0 ? kExitInterrupted
                                                   : kExitOk;
}

int cmd_send(Args& args) {
  ingest::SendOptions options;
  const auto file = args.value("--file");
  const auto port = args.value("--port");
  const auto session = args.value("--session");
  const auto secret_file = args.value("--secret-file");
  if (!file || !port || !session || !secret_file) {
    std::cerr << "send: --file, --port, --session and --secret-file are "
                 "required\n";
    usage(kExitUsage);
  }
  options.path = *file;
  options.session = *session;
  const auto parsed_port = parse_bounded(*port, 65535);
  if (!parsed_port || *parsed_port == 0) {
    std::cerr << "--port expects a port in [1, 65535], got '" << *port
              << "'\n";
    return kExitUsage;
  }
  options.port = static_cast<std::uint16_t>(*parsed_port);
  options.secret = read_secret_or_die(*secret_file);
  if (const auto value = args.value("--host")) options.host = *value;
  if (const auto value = args.value("--expect-base")) {
    std::size_t pos = 0;
    unsigned long long parsed = 0;
    try {
      parsed = std::stoull(*value, &pos, 16);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (value->empty() || pos != value->size()) {
      std::cerr << "--expect-base expects the hex fingerprint `ingest "
                   "--listen` logs, got '"
                << *value << "'\n";
      return kExitUsage;
    }
    options.expect_base = static_cast<std::uint64_t>(parsed);
  }
  options.follow = args.flag("--follow");
  if (const auto value = args.value("--batch-lines")) {
    const auto parsed = parse_bounded(*value, 1UL << 20);
    if (!parsed || *parsed == 0) {
      std::cerr << "--batch-lines expects an integer in [1, 2^20], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    options.batch_lines = *parsed;
  }
  if (const auto value = args.value("--batch-seconds")) {
    options.batch_seconds = parse_seconds_or_die("--batch-seconds", *value);
  }
  if (const auto value = args.value("--poll-interval")) {
    options.poll_seconds = parse_seconds_or_die("--poll-interval", *value);
  }
  if (const auto value = args.value("--window")) {
    const auto parsed = parse_bounded(*value, 1UL << 16);
    if (!parsed || *parsed == 0) {
      std::cerr << "--window expects an integer in [1, 2^16], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    options.window = *parsed;
  }
  if (const auto value = args.value("--max-attempts")) {
    const auto parsed = parse_bounded(*value, 1UL << 30);
    if (!parsed) {
      std::cerr << "--max-attempts expects an integer in [0, 2^30], got '"
                << *value << "'\n";
      return kExitUsage;
    }
    options.max_attempts = *parsed;
  }
  if (const auto value = args.value("--heartbeat")) {
    options.heartbeat_seconds = parse_seconds_or_die("--heartbeat", *value);
  }
  if (const auto value = args.value("--deadline")) {
    options.deadline_seconds = parse_seconds_or_die("--deadline", *value);
  }
  args.reject_unknown();
  options.log = [](const std::string& line) {
    std::cerr << "send: " << line << "\n";
  };

  // SIGTERM/SIGINT stop the sender cleanly mid-stream; anything unACKed
  // is simply resent by the next invocation (the receiver dedupes).
  core::SignalGuard signals;
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    while (true) {
      const int signal_number = signals.wait();
      if (signal_number != 0) {
        std::cerr << "send: received "
                  << (signal_number == SIGTERM ? "SIGTERM" : "SIGINT")
                  << ", stopping\n";
        stop.store(true);
        return;
      }
      if (done.load()) return;
    }
  });
  ingest::SendStats stats;
  try {
    stats = ingest::run_sender(options, stop);
  } catch (...) {
    done.store(true);
    signals.wake();
    watcher.join();
    throw;
  }
  done.store(true);
  signals.wake();
  watcher.join();

  std::cerr << "send done: " << stats.lines_sent << " lines in "
            << stats.batches_sent << " batches (" << stats.batches_acked
            << " acked, " << stats.batches_resent << " resent, "
            << stats.reconnects << " reconnects), watermark seq "
            << stats.last_acked_seq << " offset " << stats.acked_offset
            << "\n";
  return core::SignalGuard::signal_received() != 0 ? kExitInterrupted
                                                   : kExitOk;
}

int cmd_supervise(Args& args) {
  const auto spec_path = args.positional();
  if (!spec_path) {
    std::cerr << "supervise: spec file path is required\n";
    usage(kExitUsage);
  }
  supervise::SuperviseOptions options;
  try {
    options = supervise::load_spec(*spec_path);
  } catch (const supervise::SpecError& error) {
    std::cerr << "supervise: " << error.what() << "\n";
    return kExitUsage;
  }
  // Flag overrides beat the spec (same precedence as everywhere else:
  // command line wins over file).
  const auto int_override = [&](const char* flag, int& field,
                                unsigned long max) {
    if (const auto value = args.value(flag)) {
      const auto parsed = parse_bounded(*value, max);
      if (!parsed) {
        std::cerr << flag << " expects an integer in [0, " << max
                  << "], got '" << *value << "'\n";
        std::exit(kExitUsage);
      }
      field = static_cast<int>(*parsed);
    }
  };
  const auto seconds_override = [&](const char* flag, double& field) {
    if (const auto value = args.value(flag)) {
      field = parse_seconds_or_die(flag, *value);
    }
  };
  int_override("--restart-base-ms", options.restart_base_ms, 1UL << 20);
  int_override("--restart-cap-ms", options.restart_cap_ms, 1UL << 26);
  int_override("--breaker-restarts", options.breaker_restarts, 1UL << 16);
  int_override("--probe-misses", options.probe_misses, 1UL << 16);
  seconds_override("--breaker-window", options.breaker_window_s);
  seconds_override("--probe-interval", options.probe_interval_s);
  seconds_override("--probe-timeout", options.probe_timeout_s);
  seconds_override("--probe-grace", options.probe_grace_s);
  seconds_override("--drain", options.drain_s);
  args.reject_unknown();
  if (options.workers.empty()) {
    std::cerr << "supervise: " << *spec_path << " declares no workers\n";
    return kExitUsage;
  }
  options.log = &std::cerr;

  // TERM/INT set the stop flag the supervisor's loop polls (it cascades
  // the shutdown itself); SIGHUP increments the counter it forwards to
  // the fleet. The watcher loops for the same reason ingest's does.
  core::SignalGuard signals;
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> hups{0};
  std::thread watcher([&] {
    while (true) {
      const int signal_number = signals.wait();
      hups.store(core::SignalGuard::hup_count());
      if (signal_number != 0) {
        std::cerr << "supervise: received "
                  << (signal_number == SIGTERM ? "SIGTERM" : "SIGINT")
                  << ", stopping the fleet...\n";
        stop.store(true);
        return;
      }
      if (done.load()) return;
    }
  });
  supervise::ProcessSupervisor supervisor(std::move(options));
  supervise::SuperviseReport report;
  try {
    report = supervisor.run(&stop, &hups);
  } catch (...) {
    done.store(true);
    signals.wake();
    watcher.join();
    throw;
  }
  done.store(true);
  signals.wake();
  watcher.join();

  std::cerr << "supervise done: " << report.restarts << " restarts, "
            << report.probe_kills << " probe kills"
            << (report.breaker_tripped
                    ? ", at least one worker abandoned by the breaker"
                    : "")
            << "\n";
  return report.breaker_tripped ? kExitCrashLoop : kExitOk;
}

int cmd_paths(Args& args) {
  const auto traces_path = args.value("--traces");
  const auto rib_path = args.value("--rib");
  if (!traces_path || !rib_path) {
    std::cerr << "paths: --traces and --rib are required\n";
    usage(kExitUsage);
  }
  std::size_t limit = 20;
  if (const auto l = args.value("--limit")) {
    const auto parsed = net::parse_uint<std::size_t>(*l);
    if (!parsed) {
      std::cerr << "--limit expects a non-negative integer, got '" << *l
                << "'\n";
      usage(kExitUsage);
    }
    limit = *parsed;
  }
  const unsigned threads = parse_threads(args);
  const bool lenient = args.flag("--lenient");
  const auto relationships_path = args.value("--relationships");
  const auto as2org_path = args.value("--as2org");
  const auto ixps_path = args.value("--ixps");
  args.reject_unknown();

  LoadReport trace_report;
  LoadReport rib_report;
  auto traces_stream = open_or_die(*traces_path);
  const graph::LoadedGraph loaded = graph::read_graph(
      traces_stream, threads, lenient ? &trace_report : nullptr);
  auto rib_stream = open_or_die(*rib_path);
  const bgp::Rib rib =
      bgp::Rib::read(rib_stream, lenient ? &rib_report : nullptr);
  if (lenient) {
    report_quarantine("traces", trace_report);
    report_quarantine("rib", rib_report);
  }
  asdata::AsRelationships rels;
  if (relationships_path) {
    auto stream = open_or_die(*relationships_path);
    rels = asdata::AsRelationships::read(stream);
  }
  asdata::As2Org orgs;
  if (as2org_path) {
    auto stream = open_or_die(*as2org_path);
    orgs = asdata::As2Org::read(stream);
  }
  asdata::IxpRegistry ixps;
  if (ixps_path) {
    auto stream = open_or_die(*ixps_path);
    ixps = asdata::IxpRegistry::read(stream);
  }

  const bgp::Ip2As ip2as(rib, net::PrefixTrie<asdata::Asn>{}, &ixps);
  core::Options paths_options;
  paths_options.threads = threads;
  const core::Result result =
      core::run_mapit(loaded.graph, ip2as, orgs, rels, paths_options);
  const core::PathAnnotator annotator(result, ip2as);

  auto print_path = [](const char* label,
                       const std::vector<asdata::Asn>& path) {
    std::cout << "  " << label << ":";
    for (asdata::Asn asn : path) std::cout << " AS" << asn;
    std::cout << "\n";
  };
  // The load keeps no traces, so a second, sequential pass over the file
  // sanitizes them again, in file order, for the annotation.
  auto again = open_or_die(*traces_path);
  LoadReport reported;  // the first pass already reported the quarantine
  trace::SanitizeTally tally;
  std::size_t shown = 0;
  trace::scan_traces(
      again, 1, lenient ? &reported : nullptr,
      [&](unsigned, trace::Trace& t) {
        if (shown >= limit || !trace::sanitize_trace(t, tally)) return;
        const core::AnnotatedPath annotated = annotator.annotate(t);
        if (annotated.as_path == annotated.naive_as_path) return;  // boring
        ++shown;
        std::cout << "trace to " << t.destination.to_string() << " (monitor "
                  << t.monitor << ")\n";
        print_path("naive ", annotated.naive_as_path);
        print_path("mapit ", annotated.as_path);
      });
  if (shown == 0) {
    std::cout << "no traces with corrected AS paths in the first "
              << loaded.stats.input_traces - loaded.stats.discarded_traces
              << "\n";
  }
  return 0;
}

int cmd_eval(Args& args) {
  const auto inferences_path = args.value("--inferences");
  const auto truth_path = args.value("--truth");
  if (!inferences_path || !truth_path) {
    std::cerr << "eval: --inferences and --truth are required\n";
    usage(kExitUsage);
  }
  std::optional<asdata::Asn> target;
  if (const auto t = args.value("--target")) {
    const auto parsed = net::parse_uint<asdata::Asn>(*t);
    if (!parsed) {
      std::cerr << "--target expects an ASN, got '" << *t << "'\n";
      usage(kExitUsage);
    }
    target = *parsed;
  }
  args.reject_unknown();

  auto inf_stream = open_or_die(*inferences_path);
  const std::vector<core::Inference> inferences =
      core::read_inferences(inf_stream);
  auto truth_stream = open_or_die(*truth_path);
  const std::vector<topo::TrueLink> truth =
      topo::read_true_links(truth_stream);

  // Lightweight link-coverage check (the full §5.2 verification rules need
  // the complete internal-interface inventory; use the library's Evaluator
  // for that). A truth link is matched when any inference on either of its
  // addresses names its AS pair; an inference on a truth address naming a
  // different pair is a mismatch.
  std::size_t in_scope = 0, matched = 0, mismatched = 0;
  for (const topo::TrueLink& link : truth) {
    if (target && link.as_a != *target && link.as_b != *target) continue;
    ++in_scope;
    bool ok = false, bad = false;
    for (const core::Inference& inference : inferences) {
      if (inference.half.address != link.addr_a &&
          inference.half.address != link.addr_b) {
        continue;
      }
      const auto pair = inference.as_pair();
      const auto want = link.as_a <= link.as_b
                            ? std::make_pair(link.as_a, link.as_b)
                            : std::make_pair(link.as_b, link.as_a);
      (pair == want ? ok : bad) = true;
    }
    matched += ok ? 1 : 0;
    mismatched += (!ok && bad) ? 1 : 0;
  }
  std::cout << "truth links in scope : " << in_scope << "\n"
            << "matched by inferences: " << matched << " ("
            << (in_scope == 0 ? 100.0 : 100.0 * static_cast<double>(matched) /
                                            static_cast<double>(in_scope))
            << "%)\n"
            << "wrong-pair inferences: " << mismatched << "\n";
  return 0;
}

int cmd_stats(Args& args) {
  const auto traces_path = args.value("--traces");
  if (!traces_path) {
    std::cerr << "stats: --traces is required\n";
    usage(kExitUsage);
  }
  const unsigned threads = parse_threads(args);
  const bool lenient = args.flag("--lenient");
  args.reject_unknown();
  LoadReport trace_report;
  auto stream = open_or_die(*traces_path);
  const graph::LoadedGraph loaded =
      graph::read_graph(stream, threads, lenient ? &trace_report : nullptr);
  if (lenient) report_quarantine("traces", trace_report);
  const trace::SanitizeStats& stats = loaded.stats;
  const graph::GraphStats gs = loaded.graph.stats();

  std::cout << "traces                : " << stats.input_traces << "\n"
            << "discarded (cycles)    : " << stats.discarded_traces << " ("
            << 100.0 * stats.discard_fraction() << "%)\n"
            << "TTL=0 hops removed    : " << stats.removed_ttl0_hops << "\n"
            << "distinct addresses    : " << stats.input_addresses << " -> "
            << stats.retained_addresses << " ("
            << 100.0 * stats.address_retention() << "% retained)\n"
            << "graph interfaces      : " << gs.interfaces << "\n"
            << "|N_F| > 1             : " << gs.forward_multi << "\n"
            << "|N_B| > 1             : " << gs.backward_multi << "\n"
            << "both-direction overlap: " << gs.both_directions_overlap
            << " (" << 100.0 * gs.overlap_fraction() << "%)\n"
            << "/31-numbered          : " << 100.0 * gs.slash31_fraction
            << "%\n";
  return 0;
}

int cmd_simulate(Args& args) {
  const auto out_dir = args.value("--out");
  if (!out_dir) {
    std::cerr << "simulate: --out is required\n";
    usage(kExitUsage);
  }
  eval::ExperimentConfig config = eval::ExperimentConfig::small();
  if (const auto scale = args.value("--scale")) {
    if (*scale == "standard") {
      config = eval::ExperimentConfig::standard();
    } else if (*scale != "small") {
      std::cerr << "unknown scale '" << *scale << "'\n";
      return kExitUsage;
    }
  }
  if (const auto seed = args.value("--seed")) {
    const auto parsed = net::parse_uint<std::uint64_t>(*seed);
    if (!parsed) {
      std::cerr << "--seed expects a non-negative integer, got '" << *seed
                << "'\n";
      return kExitUsage;
    }
    const std::uint64_t value = *parsed;
    config.topology.seed = value;
    config.simulation.seed = value ^ 0xFEEDu;
    config.dataset_seed = value ^ 0xBEEFu;
  }
  args.reject_unknown();

  const auto experiment = eval::Experiment::build(config);
  const std::filesystem::path dir(*out_dir);
  std::filesystem::create_directories(dir);

  {
    std::ofstream out(dir / "traces.txt");
    trace::write_corpus(out, experiment->raw_corpus());
  }
  {
    std::ofstream out(dir / "rib.txt");
    experiment->internet()
        .export_rib(config.noise, config.dataset_seed)
        .write(out);
  }
  {
    std::ofstream out(dir / "relationships.txt");
    experiment->relationships().write(out);
  }
  {
    std::ofstream out(dir / "as2org.txt");
    experiment->orgs().write(out);
  }
  {
    std::ofstream out(dir / "ixps.txt");
    experiment->ixps().write(out);
  }
  {
    std::ofstream out(dir / "truth.txt");
    topo::write_true_links(out, experiment->internet().true_links());
  }
  std::cout << "wrote traces.txt rib.txt relationships.txt as2org.txt "
               "ixps.txt truth.txt to "
            << dir.string() << "\n"
            << "(" << experiment->raw_corpus().size() << " traces over "
            << experiment->internet().ases().size() << " ASes)\n"
            << "try: mapit run --traces " << (dir / "traces.txt").string()
            << " --rib " << (dir / "rib.txt").string()
            << " --relationships " << (dir / "relationships.txt").string()
            << " --as2org " << (dir / "as2org.txt").string() << " --ixps "
            << (dir / "ixps.txt").string() << "\n";
  return 0;
}

int cmd_sweep(Args& args) {
  eval::DiffSweepOptions options;
  options.progress = &std::cerr;
  if (const auto rates = args.value("--rates")) {
    options.rates.clear();
    std::stringstream in(*rates);
    std::string token;
    while (std::getline(in, token, ',')) {
      std::size_t pos = 0;
      double rate = -1;
      try {
        rate = std::stod(token, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      if (pos != token.size() || !(rate >= 0.0) || !(rate <= 1.0)) {
        std::cerr << "--rates expects comma-separated fractions in [0, 1], "
                     "got '" << token << "'\n";
        return kExitUsage;
      }
      options.rates.push_back(rate);
    }
  }
  if (const auto seeds = args.value("--seeds")) {
    options.seeds.clear();
    std::stringstream in(*seeds);
    std::string token;
    while (std::getline(in, token, ',')) {
      const auto seed = net::parse_uint<std::uint64_t>(token);
      if (!seed) {
        std::cerr << "--seeds expects comma-separated integers, got '"
                  << token << "'\n";
        return kExitUsage;
      }
      options.seeds.push_back(*seed);
    }
  }
  if (options.rates.empty() || options.seeds.empty()) {
    std::cerr << "sweep: need at least one rate and one seed\n";
    return kExitUsage;
  }
  if (const auto state = args.value("--state")) options.state_path = *state;
  options.threads = parse_threads(args);
  const auto out_path = args.value("--out");
  const auto baseline_path = args.value("--baseline");
  args.reject_unknown();

  const eval::DiffSweepReport report = eval::run_diff_sweep(options);
  const std::string json = eval::format_diff_sweep_json(report);
  if (out_path) {
    fault::write_file_atomic(*out_path, json);
  } else {
    std::cout << json;
  }

  if (baseline_path) {
    std::ifstream in(*baseline_path);
    if (!in) throw mapit::Error("cannot open baseline: " + *baseline_path);
    const eval::DiffSweepReport baseline =
        eval::parse_diff_sweep_json(in, *baseline_path);
    const std::vector<std::string> drift =
        eval::diff_sweep_drift(baseline, report);
    if (!drift.empty()) {
      std::cerr << "DIFF SWEEP DRIFT against " << *baseline_path << ":\n";
      for (const std::string& line : drift) std::cerr << "  " << line << "\n";
      return 1;
    }
    std::cerr << "diff sweep matches baseline " << *baseline_path << " ("
              << report.cells.size() << " cells)\n";
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(kExitUsage);
  const std::string command = argv[1];
  Args args(argc, argv);
  try {
    if (command == "run") return cmd_run(args);
    if (command == "eval") return cmd_eval(args);
    if (command == "paths") return cmd_paths(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "snapshot") return cmd_snapshot(args);
    if (command == "query") return cmd_query(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "ingest") return cmd_ingest(args);
    if (command == "send") return cmd_send(args);
    if (command == "supervise") return cmd_supervise(args);
    if (command == "help" || command == "--help" || command == "-h") usage(0);
    std::cerr << "unknown command '" << command << "'\n";
    usage(kExitUsage);
  } catch (const ingest::TransportAuthError& error) {
    std::cerr << "transport error: " << error.what() << "\n";
    return kExitTransportRejected;
  } catch (const ingest::TransportRetriesExhausted& error) {
    std::cerr << "transport error: " << error.what() << "\n";
    return kExitTransportGaveUp;
  } catch (const core::CheckpointError& error) {
    std::cerr << "checkpoint error: " << error.what() << "\n";
    return kExitCheckpointMismatch;
  } catch (const mapit::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return kExitLoadError;
  }
}
