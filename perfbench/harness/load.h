// Closed-loop pipelined query load: one thread drives every connection of a
// workload (so the load generator leaves the other cores to the program).
// Each connection sends a window of requests in one write and waits for all
// their answers before sending its next window, so a slow server receives
// less load. Every answer is checked; per-request latency runs from the
// window's send to the read that completed the answer.
//
// Figures are kept per one-second interval of the measurement window, so a
// caller can take the median interval: a host that stalls the run for a
// second or two moves that median far less than a whole-run figure.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

/// Requests per window (round) of every connection.
constexpr std::size_t kWindow = 32;

struct ConnectionConfig {
  bool binary = false;          ///< MQB1 framing instead of the line protocol
  std::size_t first_query = 0;  ///< where in the query list it starts
};

struct ClientConfig {
  std::uint16_t port = 0;
  std::vector<ConnectionConfig> connections;
  /// Request lines (no newline), cycled. Their count must be a multiple of
  /// kWindow.
  const std::vector<std::string>* queries = nullptr;
  /// Expected answer per query; null accepts any answer but "ERR ...".
  const std::vector<std::string>* expected = nullptr;
  /// Pause between a window's last answer and the connection's next window.
  std::chrono::microseconds think{0};
  /// Appends HEALTH to every window and checks that the snapshot generation
  /// it reports never goes backwards.
  bool probe_generation = false;
};

/// Answers and a uniform latency sample (fixed size, so memory does not
/// track throughput) of one second of the measurement window.
struct Interval {
  std::uint64_t answers = 0;
  std::vector<double> latency_us;
};

struct ClientStats {
  std::vector<Interval> intervals;  ///< one per second of the window
  std::uint64_t failures = 0;       ///< wrong, ERR, or lost answers (any time)
  std::uint64_t generation_regressions = 0;
  std::string first_failure;
};

class LoadClient {
 public:
  /// Connects and starts the load; `seconds` is the measurement window.
  LoadClient(const ClientConfig& config, std::size_t seconds);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Starts the measurement window at `start_ns` (steady clock).
  void begin_measure(std::uint64_t start_ns);
  /// Ends the measurement window, stops after the windows in flight, joins.
  void stop();
  [[nodiscard]] const ClientStats& stats() const { return stats_; }

 private:
  struct Connection {
    int fd = -1;
    ConnectionConfig config;
    std::vector<std::string> rounds;  ///< pre-encoded request windows
    std::string in;                   ///< answer bytes not yet consumed
    std::size_t round = 0;            ///< windows sent so far
    std::size_t done = 0;             ///< answers of the current window
    bool waiting = false;             ///< a window is in flight
    std::uint64_t sent_ns = 0;
    std::uint64_t next_send_ns = 0;   ///< end of the think time
  };

  void run();
  [[nodiscard]] bool send_round(Connection& connection, std::uint64_t now);
  /// Consumes complete answers of the window in flight.
  void take_answers(Connection& connection, std::uint64_t now);
  void check_answer(std::string_view answer, std::size_t query);
  void fail(const std::string& why);
  void record(std::uint64_t sent_ns, std::uint64_t now);

  ClientConfig config_;
  std::vector<Connection> connections_;
  std::atomic<int> phase_{0};  ///< 0 warm-up, 1 measuring, 2 stopping
  std::atomic<std::uint64_t> start_ns_{0};
  std::uint64_t last_generation_ = 0;
  std::vector<std::uint64_t> offered_;  ///< latencies seen, per interval
  std::mt19937_64 sampler_;
  ClientStats stats_;
  std::thread thread_;
};

/// Median over the seconds of the window of the answers in that second.
[[nodiscard]] double median_throughput(const ClientStats& stats);

/// Median over the seconds of the window of that second's q-quantile
/// latency (µs).
[[nodiscard]] double median_interval_latency(const ClientStats& stats,
                                             double q);

}  // namespace perfbench
