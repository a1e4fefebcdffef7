// End-to-end MDP1 remote ingestion: `run_sender` against `run_ingest
// --listen`, plus hand-rolled clients for the scenarios a well-behaved
// sender cannot produce on demand (deliberate duplicates, a crash injected
// between the journal fsync and the ACK).
//
// The acceptance bar is the repo's one invariant: after ANY combination of
// sender restart, receiver crash, dropped connection, or replayed frames,
// the published snapshot is byte-identical to a cold batch run over
// base + deltas — and a rejected handshake (wrong secret, wrong base
// fingerprint) writes nothing to the journal at all.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fault/plan.h"
#include "ingest/pipeline.h"
#include "ingest/runner.h"
#include "ingest/sender.h"
#include "ingest/transport.h"

namespace mapit {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr const char* kRib =
    "rc0|11.1.0.0/16|100\n"
    "rc0|11.2.0.0/16|200\n"
    "rc0|11.3.0.0/16|300\n";

// Same hand-sized internet the ingest equivalence test uses. The crossings
// through 11.2.0.40 live only in the second half, so the delta provably
// changes the published bytes — the fixture asserts base != cold, keeping
// every "snapshot equals cold run" check in this file non-vacuous.
std::vector<std::string> corpus_lines() {
  std::vector<std::string> lines;
  for (int i = 0; i < 6; ++i) {
    const std::string a = std::to_string(2 + i);
    lines.push_back("0|11.2.0." + a + "|11.1.0.1@1 11.1.0." + a +
                    "@2 11.2.0.1@3 11.2.0." + a + "@4");
    lines.push_back("1|11.3.0." + a + "|11.2.0.1@1 11.2.0." + a +
                    "@2 11.3.0.1@3 11.3.0." + a + "@4");
    lines.push_back("2|11.1.0." + a + "|11.3.0.1@1 11.3.0." + a +
                    "@2 11.2.0.1@3 11.2.0." + a + "@4 11.1.0.1@5 11.1.0." +
                    a + "@6");
  }
  for (int i = 0; i < 6; ++i) {
    const std::string a = std::to_string(20 + i);
    lines.push_back("0|11.3.0." + a + "|11.1.0.1@1 11.1.0." + a +
                    "@2 11.2.0.40@3 11.3.0.1@4 11.3.0." + a + "@5");
    lines.push_back("1|11.1.0." + a + "|11.2.0.40@1 11.2.0." + a +
                    "@2 11.1.0.1@3 11.1.0." + a + "@4");
  }
  return lines;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << "\n";
}

void append_lines(const std::string& path,
                  const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::app);
  for (const std::string& line : lines) out << line << "\n";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

int pick_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<struct ::sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  ::socklen_t length = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct ::sockaddr*>(&addr),
                    &length) != 0) {
    ::close(fd);
    return -1;
  }
  ::close(fd);
  return static_cast<int>(ntohs(addr.sin_port));
}

std::string query_health(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct ::timeval timeout{};
  timeout.tv_sec = 2;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  struct ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct ::sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const char kProbe[] = "HEALTH\n";
  if (::send(fd, kProbe, sizeof(kProbe) - 1, MSG_NOSIGNAL) !=
      static_cast<ssize_t>(sizeof(kProbe) - 1)) {
    ::close(fd);
    return "";
  }
  std::string reply;
  char buffer[512];
  const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
  if (n > 0) reply.assign(buffer, static_cast<std::size_t>(n));
  ::close(fd);
  return reply;
}

/// run_ingest on a worker thread: start(), then finish() to request a
/// stop, join, and rethrow whatever the run threw (InjectedCrash included).
class IngestRun {
 public:
  ~IngestRun() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  void start(const ingest::IngestOptions& options) {
    thread_ = std::thread([this, options] {
      try {
        stats_ = ingest::run_ingest(options, &stop_);
      } catch (...) {
        error_ = std::current_exception();
      }
    });
  }

  ingest::IngestStats finish() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    if (error_) std::rethrow_exception(error_);
    return stats_;
  }

 private:
  std::thread thread_;
  std::atomic<bool> stop_{false};
  ingest::IngestStats stats_;
  std::exception_ptr error_;
};

/// Hand-rolled MDP1 client for the paths run_sender is too well-behaved to
/// exercise: deliberate duplicate BATCHes and reads across a server crash.
class RawClient {
 public:
  explicit RawClient(int port) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (fd_ < 0 && std::chrono::steady_clock::now() < deadline) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) break;
      struct ::sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<struct ::sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        fd_ = fd;
        struct ::timeval timeout{};
        timeout.tv_usec = 100000;
        (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout));
        const int one = 1;
        (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        break;
      }
      ::close(fd);
      std::this_thread::sleep_for(10ms);
    }
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  void send_raw(std::string_view bytes) {
    ASSERT_GE(fd_, 0);
    EXPECT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  std::optional<ingest::Frame> read_frame() {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    ingest::Frame frame;
    while (std::chrono::steady_clock::now() < deadline) {
      if (reader_.next(frame)) return frame;
      char buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n > 0) {
        reader_.append(std::string_view(buffer,
                                        static_cast<std::size_t>(n)));
      } else if (n == 0) {
        return std::nullopt;
      }
    }
    return std::nullopt;
  }

  /// Full handshake; returns the server's durable watermark (HELLO_ACK).
  std::optional<ingest::HelloAckFrame> handshake(const std::string& secret,
                                                const std::string& session) {
    send_raw(std::string_view(ingest::kTransportMagic,
                              sizeof(ingest::kTransportMagic)));
    const auto challenge_frame = read_frame();
    if (!challenge_frame ||
        challenge_frame->type != ingest::FrameType::kChallenge) {
      return std::nullopt;
    }
    const auto challenge = ingest::parse_challenge(challenge_frame->payload);
    ingest::HelloFrame hello;
    hello.base_fingerprint = challenge.base_fingerprint;
    hello.session = session;
    hello.mac = ingest::compute_hello_mac(secret, challenge.nonce,
                                          challenge.base_fingerprint,
                                          session);
    send_raw(ingest::serialize_hello(hello));
    const auto ack = read_frame();
    if (!ack || ack->type != ingest::FrameType::kHelloAck) {
      return std::nullopt;
    }
    return ingest::parse_hello_ack(ack->payload);
  }

 private:
  int fd_ = -1;
  ingest::FrameReader reader_;
};

class RemoteIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("mapit_remote_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    lines_ = corpus_lines();
    base_count_ = lines_.size() / 2;
    rib_path_ = (dir_ / "rib.txt").string();
    std::ofstream rib(rib_path_);
    rib << kRib;
    full_path_ = (dir_ / "full.txt").string();
    write_lines(full_path_, lines_);
    base_path_ = (dir_ / "base.txt").string();
    write_lines(base_path_, std::vector<std::string>(
                                lines_.begin(),
                                lines_.begin() +
                                    static_cast<std::ptrdiff_t>(base_count_)));
    send_path_ = (dir_ / "send.txt").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Receiver options: MDP1 listener, no tailed file, fast cadences,
  /// liveness timers off so server sends are a deterministic sequence.
  ingest::IngestOptions listen_options(int port, unsigned threads = 1) const {
    ingest::IngestOptions opts;
    opts.base.traces_path = base_path_;
    opts.base.rib_path = rib_path_;
    opts.base.options.threads = threads;
    opts.journal_path = (dir_ / "delta.jnl").string();
    opts.out_path = (dir_ / "live.snap").string();
    opts.listen_port = port;
    opts.secret = kSecret;
    opts.transport_heartbeat_seconds = 0;
    opts.transport_deadline_seconds = 0;
    opts.batch_seconds = 0.05;
    opts.poll_interval = 0.005;
    opts.retry_interval = 0.02;
    return opts;
  }

  ingest::SendOptions send_options(int port) const {
    ingest::SendOptions opts;
    opts.port = static_cast<std::uint16_t>(port);
    opts.path = send_path_;
    opts.session = "mon-a";
    opts.secret = kSecret;
    opts.batch_lines = 3;  // several batches per run
    opts.batch_seconds = 0.05;
    opts.poll_seconds = 0.01;
    opts.window = 2;
    opts.heartbeat_seconds = 0;
    opts.deadline_seconds = 0;
    opts.reconnect_base_seconds = 0.02;
    opts.reconnect_cap_seconds = 0.1;
    opts.max_attempts = 500;  // ~10s of patience for the listener to bind
    return opts;
  }

  std::vector<std::string> delta_lines() const {
    return std::vector<std::string>(
        lines_.begin() + static_cast<std::ptrdiff_t>(base_count_),
        lines_.end());
  }

  std::string cold_bytes(unsigned threads = 1) const {
    return serialize_corpus(full_path_, threads);
  }

  /// The base-only snapshot — what the receiver publishes before any delta
  /// folds. Tests assert it differs from cold_bytes() so byte-identity
  /// after folding actually proves the deltas landed.
  std::string base_bytes(unsigned threads = 1) const {
    return serialize_corpus(base_path_, threads);
  }

  std::string serialize_corpus(const std::string& traces_path,
                               unsigned threads) const {
    ingest::IngestSetup setup;
    setup.traces_path = traces_path;
    setup.rib_path = rib_path_;
    setup.options.threads = threads;
    ingest::IngestPipeline pipeline(setup);
    return pipeline.serialize();
  }

  /// Waits for the journal to go quiescent (no writes for ~5 polls).
  std::uintmax_t stable_journal_size() const {
    const std::string path = (dir_ / "delta.jnl").string();
    std::uintmax_t last = 0;
    int stable = 0;
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      std::error_code ec;
      const std::uintmax_t size = fs::file_size(path, ec);
      if (!ec && size == last) {
        if (++stable >= 5) return size;
      } else {
        stable = 0;
        last = ec ? 0 : size;
      }
      std::this_thread::sleep_for(20ms);
    }
    return last;
  }

  static constexpr const char* kSecret = "remote ingest test secret";
  std::atomic<bool> never_stop_{false};

  fs::path dir_;
  std::vector<std::string> lines_;
  std::size_t base_count_ = 0;
  std::string rib_path_;
  std::string full_path_;
  std::string base_path_;
  std::string send_path_;
};

TEST_F(RemoteIngestTest, SenderDrainMatchesColdAcrossThreadCounts) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_NE(cold_bytes(threads), base_bytes(threads));
    fs::remove(dir_ / "delta.jnl");
    fs::remove(dir_ / "live.snap");
    write_lines(send_path_, delta_lines());

    const int port = pick_port();
    const int health_port = pick_port();
    ASSERT_GT(port, 0);
    ingest::IngestOptions opts = listen_options(port, threads);
    opts.health_port = health_port;
    IngestRun run;
    run.start(opts);

    const ingest::SendStats sent =
        ingest::run_sender(send_options(port), never_stop_);
    EXPECT_EQ(sent.lines_sent, delta_lines().size());
    EXPECT_EQ(sent.batches_acked, sent.batches_sent);
    EXPECT_GT(sent.last_acked_seq, 0u);
    EXPECT_EQ(sent.acked_offset, fs::file_size(send_path_));

    // Satellite: HEALTH now reports live sessions and the ACK watermark.
    // The ingest loop copies the watermark into HEALTH on its next pass
    // after the ACK went out, so wait for the final value itself: under
    // load a probe can land in between and see the previous sequence.
    const std::string final_ack =
        "last_ack=mon-a:" + std::to_string(sent.last_acked_seq);
    std::string health;
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      health = query_health(health_port);
      if (health.find(final_ack) != std::string::npos) break;
      std::this_thread::sleep_for(20ms);
    }
    EXPECT_NE(health.find("sessions="), std::string::npos) << health;
    EXPECT_NE(health.find(final_ack), std::string::npos) << health;

    const ingest::IngestStats stats = run.finish();
    EXPECT_EQ(stats.remote_batches, sent.batches_acked);
    EXPECT_EQ(stats.folded_traces, delta_lines().size());
    EXPECT_EQ(read_file((dir_ / "live.snap").string()), cold_bytes(threads));
  }
}

TEST_F(RemoteIngestTest, SenderRestartResumesFromDurableOffset) {
  const std::vector<std::string> delta = delta_lines();
  const std::size_t first_half = delta.size() / 2;
  write_lines(send_path_,
              std::vector<std::string>(delta.begin(),
                                       delta.begin() +
                                           static_cast<std::ptrdiff_t>(
                                               first_half)));

  const int port = pick_port();
  ASSERT_GT(port, 0);
  IngestRun run;
  run.start(listen_options(port));

  // "Process one": drains the first half, then exits (kill -9 equivalent —
  // a fresh run_sender call starts with no in-memory state).
  const ingest::SendStats first =
      ingest::run_sender(send_options(port), never_stop_);
  EXPECT_EQ(first.lines_sent, first_half);
  const std::uintmax_t half_bytes = fs::file_size(send_path_);
  EXPECT_EQ(first.acked_offset, half_bytes);

  // "Process two": the file has grown; resume must come from the server's
  // HELLO_ACK offset — only the new lines are read and sent.
  append_lines(send_path_,
               std::vector<std::string>(delta.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                first_half),
                                        delta.end()));
  const ingest::SendStats second =
      ingest::run_sender(send_options(port), never_stop_);
  EXPECT_EQ(second.lines_sent, delta.size() - first_half);
  EXPECT_GT(second.last_acked_seq, first.last_acked_seq);
  EXPECT_EQ(second.acked_offset, fs::file_size(send_path_));

  const ingest::IngestStats stats = run.finish();
  EXPECT_EQ(stats.folded_traces, delta.size());
  EXPECT_EQ(stats.remote_duplicates, 0u);
  const std::string live = read_file((dir_ / "live.snap").string());
  EXPECT_EQ(live, cold_bytes());

  // A restarted receiver replays the kRemoteBatch records — watermark and
  // lines restored together — and republishes identical bytes.
  ingest::IngestOptions replay = listen_options(-1);
  replay.listen_port = -1;
  replay.secret.clear();
  replay.drain = true;
  IngestRun replay_run;
  replay_run.start(replay);
  const ingest::IngestStats replayed = replay_run.finish();
  EXPECT_EQ(replayed.replayed_traces, delta.size());
  EXPECT_EQ(read_file((dir_ / "live.snap").string()), live);
}

TEST_F(RemoteIngestTest, DuplicateResendIsDroppedWithoutJournalWrites) {
  const std::vector<std::string> delta = delta_lines();
  const int port = pick_port();
  ASSERT_GT(port, 0);
  IngestRun run;
  run.start(listen_options(port));

  RawClient client(port);
  ASSERT_TRUE(client.connected());
  const auto hello_ack = client.handshake(kSecret, "mon-dup");
  ASSERT_TRUE(hello_ack.has_value());
  EXPECT_EQ(hello_ack->last_seq, 0u);

  ingest::BatchFrame batch;
  batch.seq = 1;
  batch.end_offset = 1000;
  batch.lines = delta;
  client.send_raw(ingest::serialize_batch(batch));
  const auto ack = client.read_frame();
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, ingest::FrameType::kAck);
  EXPECT_EQ(ingest::parse_ack(ack->payload).seq, 1u);

  // Let the fold/commit land, then prove the duplicate writes nothing.
  const std::uintmax_t before = stable_journal_size();
  client.send_raw(ingest::serialize_batch(batch));
  const auto re_ack = client.read_frame();
  ASSERT_TRUE(re_ack.has_value());
  ASSERT_EQ(re_ack->type, ingest::FrameType::kAck);
  EXPECT_EQ(ingest::parse_ack(re_ack->payload).seq, 1u);
  EXPECT_EQ(ingest::parse_ack(re_ack->payload).end_offset, 1000u);
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(fs::file_size(dir_ / "delta.jnl"), before);

  const ingest::IngestStats stats = run.finish();
  EXPECT_EQ(stats.remote_batches, 1u);
  EXPECT_EQ(stats.remote_duplicates, 1u);
  EXPECT_EQ(read_file((dir_ / "live.snap").string()), cold_bytes());
}

TEST_F(RemoteIngestTest, CrashBetweenFsyncAndAckIsDedupedOnReconnect) {
  const std::vector<std::string> delta = delta_lines();
  const int port = pick_port();
  ASSERT_GT(port, 0);

  // With heartbeats and deadlines off and one client, the receiver's send
  // sequence is exactly CHALLENGE (1), HELLO_ACK (2), first ACK (3). Crash
  // at #3: the batch is journaled + fsynced, the sender never hears it.
  fault::FaultPlan plan;
  plan.add(fault::Fault{.op = fault::Op::kSend, .nth = 3, .crash = true});
  ingest::IngestOptions crash_opts = listen_options(port);
  crash_opts.io = &plan;
  IngestRun crashed;
  crashed.start(crash_opts);

  {
    RawClient client(port);
    ASSERT_TRUE(client.connected());
    const auto hello_ack = client.handshake(kSecret, "mon-crash");
    ASSERT_TRUE(hello_ack.has_value());
    ingest::BatchFrame batch;
    batch.seq = 1;
    batch.end_offset = 777;
    batch.lines = delta;
    client.send_raw(ingest::serialize_batch(batch));
    EXPECT_FALSE(client.read_frame().has_value());  // no ACK, just EOF
  }
  EXPECT_THROW((void)crashed.finish(), fault::InjectedCrash);

  // Restart. HELLO_ACK must already name the batch (durable before ACK),
  // and the reconnecting sender's inevitable resend must be re-ACKed
  // without another journal write.
  const int port2 = pick_port();
  ASSERT_GT(port2, 0);
  IngestRun recovered;
  recovered.start(listen_options(port2));

  RawClient client(port2);
  ASSERT_TRUE(client.connected());
  const auto hello_ack = client.handshake(kSecret, "mon-crash");
  ASSERT_TRUE(hello_ack.has_value());
  EXPECT_EQ(hello_ack->last_seq, 1u);
  EXPECT_EQ(hello_ack->last_offset, 777u);

  const std::uintmax_t before = stable_journal_size();
  ingest::BatchFrame batch;
  batch.seq = 1;
  batch.end_offset = 777;
  batch.lines = delta;
  client.send_raw(ingest::serialize_batch(batch));
  const auto re_ack = client.read_frame();
  ASSERT_TRUE(re_ack.has_value());
  ASSERT_EQ(re_ack->type, ingest::FrameType::kAck);
  EXPECT_EQ(ingest::parse_ack(re_ack->payload).seq, 1u);
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(fs::file_size(dir_ / "delta.jnl"), before);

  const ingest::IngestStats stats = recovered.finish();
  EXPECT_EQ(stats.replayed_traces, delta.size());
  EXPECT_EQ(stats.remote_duplicates, 1u);
  EXPECT_EQ(stats.remote_batches, 0u);
  EXPECT_EQ(read_file((dir_ / "live.snap").string()), cold_bytes());
}

TEST_F(RemoteIngestTest, OffsetRegressingBatchNeverReachesJournal) {
  const std::vector<std::string> delta = delta_lines();
  const std::size_t half = delta.size() / 2;
  const int port = pick_port();
  ASSERT_GT(port, 0);
  std::ostringstream log;
  ingest::IngestOptions opts = listen_options(port);
  opts.log = &log;
  IngestRun run;
  run.start(opts);

  RawClient client(port);
  ASSERT_TRUE(client.connected());
  const auto hello_ack = client.handshake(kSecret, "mon-reg");
  ASSERT_TRUE(hello_ack.has_value());

  ingest::BatchFrame batch;
  batch.seq = 1;
  batch.end_offset = 500;
  batch.lines = std::vector<std::string>(
      delta.begin(), delta.begin() + static_cast<std::ptrdiff_t>(half));
  client.send_raw(ingest::serialize_batch(batch));
  const auto ack = client.read_frame();
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, ingest::FrameType::kAck);

  // seq advances but the offset regresses: a sender bug the exactly-once
  // machinery cannot repair. Journaling it would poison the journal —
  // replay rejects offset regressions as corruption — so the runner must
  // drop it before the append, without an ACK.
  const std::uintmax_t before = stable_journal_size();
  batch.seq = 2;
  batch.end_offset = 400;
  batch.lines = std::vector<std::string>(
      delta.begin() + static_cast<std::ptrdiff_t>(half), delta.end());
  client.send_raw(ingest::serialize_batch(batch));
  std::this_thread::sleep_for(300ms);
  EXPECT_EQ(fs::file_size(dir_ / "delta.jnl"), before);

  const ingest::IngestStats stats = run.finish();
  EXPECT_EQ(stats.remote_batches, 1u);
  EXPECT_NE(log.str().find("offset-regressing"), std::string::npos)
      << log.str();

  // The journal stayed clean: a restarted receiver replays it whole.
  ingest::IngestOptions replay = listen_options(-1);
  replay.listen_port = -1;
  replay.secret.clear();
  replay.drain = true;
  IngestRun replay_run;
  replay_run.start(replay);
  const ingest::IngestStats replayed = replay_run.finish();
  EXPECT_EQ(replayed.replayed_traces, half);
}

TEST_F(RemoteIngestTest, RetryableServerErrorTriggersReconnectNotExit) {
  write_lines(send_path_, delta_lines());

  // A hand-rolled receiver whose first connection rejects the opening
  // BATCH with kOverloaded ("retry later") and whose second connection
  // behaves: the sender must reconnect and drain, not exit with an error.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  struct ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<struct ::sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  ::socklen_t length = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd,
                          reinterpret_cast<struct ::sockaddr*>(&addr),
                          &length),
            0);
  const int port = ntohs(addr.sin_port);

  std::thread server([listen_fd] {
    const auto send_all = [](int fd, const std::string& bytes) {
      (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    };
    for (int attempt = 0; attempt < 2; ++attempt) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      struct ::timeval timeout{};
      timeout.tv_sec = 5;
      (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout));
      ingest::FrameReader reader;
      const auto next_frame = [&](ingest::Frame& frame) -> bool {
        char buffer[4096];
        while (true) {
          if (reader.next(frame)) return true;
          const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
          if (n > 0) {
            reader.append(std::string_view(buffer,
                                           static_cast<std::size_t>(n)));
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          return false;  // EOF or timeout: give up on this connection
        }
      };
      // Magic, CHALLENGE out, HELLO in (accepted unchecked), HELLO_ACK out.
      std::size_t got = 0;
      char magic[sizeof(ingest::kTransportMagic)];
      while (got < sizeof(magic)) {
        const ssize_t n = ::recv(fd, magic + got, sizeof(magic) - got, 0);
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
      }
      ingest::ChallengeFrame challenge;
      challenge.base_fingerprint = 42;
      send_all(fd, ingest::serialize_challenge(challenge));
      ingest::Frame frame;
      while (next_frame(frame) &&
             frame.type != ingest::FrameType::kHello) {
      }
      send_all(fd, ingest::serialize_hello_ack(ingest::HelloAckFrame{}));
      if (attempt == 0) {
        while (next_frame(frame) &&
               frame.type != ingest::FrameType::kBatch) {
        }
        send_all(fd, ingest::serialize_error(ingest::ErrorFrame{
                         .code = ingest::TransportErrorCode::kOverloaded,
                         .message = "shedding load"}));
        std::this_thread::sleep_for(300ms);  // let the ERROR reach the peer
        ::close(fd);
        continue;
      }
      while (next_frame(frame)) {
        if (frame.type != ingest::FrameType::kBatch) continue;
        const auto batch = ingest::parse_batch(frame.payload);
        send_all(fd, ingest::serialize_ack(ingest::AckFrame{
                         .seq = batch.seq, .end_offset = batch.end_offset}));
      }
      ::close(fd);
    }
  });

  const ingest::SendStats stats =
      ingest::run_sender(send_options(port), never_stop_);
  server.join();
  ::close(listen_fd);

  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_EQ(stats.lines_sent, delta_lines().size());
  EXPECT_GT(stats.batches_resent, 0u);
  EXPECT_EQ(stats.batches_acked, stats.batches_sent);
  EXPECT_EQ(stats.acked_offset, fs::file_size(send_path_));
}

TEST_F(RemoteIngestTest, RejectedHandshakesWriteNothing) {
  write_lines(send_path_, delta_lines());
  const int port = pick_port();
  ASSERT_GT(port, 0);
  IngestRun run;
  run.start(listen_options(port));

  // Wait for the listener, then freeze the baseline journal size.
  {
    RawClient probe(port);
    ASSERT_TRUE(probe.connected());
  }
  const std::uintmax_t before = stable_journal_size();

  ingest::SendOptions wrong_secret = send_options(port);
  wrong_secret.secret = "not the secret";
  EXPECT_THROW((void)ingest::run_sender(wrong_secret, never_stop_),
               ingest::TransportAuthError);

  ingest::SendOptions wrong_base = send_options(port);
  wrong_base.expect_base = 0xdeadbeefdeadbeefULL;
  EXPECT_THROW((void)ingest::run_sender(wrong_base, never_stop_),
               ingest::TransportAuthError);

  EXPECT_EQ(fs::file_size(dir_ / "delta.jnl"), before);
  const ingest::IngestStats stats = run.finish();
  EXPECT_EQ(stats.remote_batches, 0u);
  EXPECT_EQ(stats.folded_traces, 0u);
}

TEST_F(RemoteIngestTest, UnreachableReceiverExhaustsRetries) {
  write_lines(send_path_, delta_lines());
  ingest::SendOptions opts = send_options(pick_port());  // nothing listening
  opts.max_attempts = 2;
  opts.reconnect_base_seconds = 0.01;
  EXPECT_THROW((void)ingest::run_sender(opts, never_stop_),
               ingest::TransportRetriesExhausted);
}

}  // namespace
}  // namespace mapit
