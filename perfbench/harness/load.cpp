#include "load.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "query/protocol.h"
#include "tracing.h"
#include "util.h"

namespace perfbench {

namespace {

constexpr std::size_t kSamplesPerInterval = 10'000;

}  // namespace

LoadClient::LoadClient(const ClientConfig& config, std::size_t seconds)
    : config_(config) {
  stats_.intervals.resize(std::max<std::size_t>(seconds, 1));
  offered_.assign(stats_.intervals.size(), 0);
  for (Interval& interval : stats_.intervals) {
    interval.latency_us.reserve(kSamplesPerInterval);
  }
  const std::vector<std::string>& queries = *config_.queries;
  if (queries.empty() || queries.size() % kWindow != 0) {
    throw std::runtime_error("query count must be a multiple of the window");
  }
  for (const ConnectionConfig& wanted : config_.connections) {
    Connection& connection = connections_.emplace_back();
    connection.config = wanted;
    for (std::size_t r = 0; r < queries.size() / kWindow; ++r) {
      std::string bytes;
      const auto add = [&](const std::string& line) {
        if (wanted.binary) {
          mapit::query::append_binary_frame(bytes, line);
        } else {
          bytes += line;
          bytes += '\n';
        }
      };
      for (std::size_t k = 0; k < kWindow; ++k) {
        add(queries[(wanted.first_query + r * kWindow + k) %
                    queries.size()]);
      }
      if (config_.probe_generation) add("HEALTH");
      connection.rounds.push_back(std::move(bytes));
    }
    connection.fd = connect_loopback(config_.port);
    if (connection.fd < 0 ||
        (wanted.binary &&
         !send_all(connection.fd,
                   std::string_view(mapit::query::kBinaryProtocolMagic, 4)))) {
      for (const Connection& opened : connections_) {
        if (opened.fd >= 0) close(opened.fd);
      }
      throw std::runtime_error("load connection failed");
    }
  }
  thread_ = std::thread([this] { run(); });
}

LoadClient::~LoadClient() { stop(); }

void LoadClient::begin_measure(std::uint64_t start_ns) {
  start_ns_.store(start_ns, std::memory_order_relaxed);
  phase_.store(1, std::memory_order_release);
}

void LoadClient::stop() {
  phase_.store(2, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void LoadClient::fail(const std::string& why) {
  if (stats_.failures++ == 0) stats_.first_failure = why;
}

void LoadClient::check_answer(std::string_view answer, std::size_t query) {
  const bool ok = config_.expected != nullptr
                      ? answer == (*config_.expected)[query]
                      : answer.rfind("ERR", 0) != 0;
  if (!ok) {
    fail("'" + (*config_.queries)[query] + "' -> '" + std::string(answer) +
         "'");
  }
}

void LoadClient::record(std::uint64_t sent_ns, std::uint64_t now) {
  const std::uint64_t start = start_ns_.load(std::memory_order_relaxed);
  if (now < start) return;
  const std::size_t k = (now - start) / 1'000'000'000;
  if (k >= stats_.intervals.size()) return;  // past the window
  Interval& interval = stats_.intervals[k];
  ++interval.answers;
  // Reservoir sampling (Algorithm R) within the interval.
  const double latency = static_cast<double>(now - sent_ns) / 1e3;
  if (interval.latency_us.size() < kSamplesPerInterval) {
    interval.latency_us.push_back(latency);
  } else if (const std::uint64_t slot = sampler_() % (offered_[k] + 1);
             slot < kSamplesPerInterval) {
    interval.latency_us[slot] = latency;
  }
  ++offered_[k];
}

bool LoadClient::send_round(Connection& connection, std::uint64_t now) {
  connection.sent_ns = now;
  connection.done = 0;
  connection.waiting = true;
  return send_all(connection.fd,
                  connection.rounds[connection.round % connection.rounds.size()]);
}

void LoadClient::take_answers(Connection& connection, std::uint64_t now) {
  const std::size_t per_round =
      kWindow + (config_.probe_generation ? 1 : 0);
  const bool measuring = phase_.load(std::memory_order_acquire) == 1;
  std::string& in = connection.in;
  std::size_t offset = 0;
  while (connection.done < per_round) {
    std::string_view answer;
    if (connection.config.binary) {
      if (in.size() - offset < 4) break;
      const auto* p = reinterpret_cast<const unsigned char*>(in.data() + offset);
      const std::size_t length = static_cast<std::size_t>(p[0]) |
                                 static_cast<std::size_t>(p[1]) << 8 |
                                 static_cast<std::size_t>(p[2]) << 16 |
                                 static_cast<std::size_t>(p[3]) << 24;
      if (in.size() - offset - 4 < length) break;
      answer = std::string_view(in).substr(offset + 4, length);
      offset += 4 + length;
    } else {
      const std::size_t newline = in.find('\n', offset);
      if (newline == std::string::npos) break;
      answer = std::string_view(in).substr(offset, newline - offset);
      offset = newline + 1;
    }
    const std::size_t k = connection.done++;
    if (k < kWindow) {
      const std::size_t r = connection.round % connection.rounds.size();
      check_answer(answer, (connection.config.first_query +
                            r * kWindow + k) %
                               config_.queries->size());
      if (measuring) record(connection.sent_ns, now);
      continue;
    }
    // HEALTH: "OK crc32=... generation=N ..."
    const std::size_t at = answer.find(" generation=");
    if (at == std::string_view::npos) {
      fail("HEALTH -> '" + std::string(answer) + "'");
      continue;
    }
    const std::uint64_t generation =
        std::stoull(std::string(answer.substr(at + 12)));
    if (generation < last_generation_) ++stats_.generation_regressions;
    last_generation_ = generation;
  }
  in.erase(0, offset);
  if (connection.done == per_round) {
    connection.waiting = false;
    ++connection.round;
    connection.next_send_ns =
        now + static_cast<std::uint64_t>(
                  std::chrono::nanoseconds(config_.think).count());
  }
}

void LoadClient::run() {
  exclude_thread_from_alloc_counts();
  std::vector<pollfd> polls(connections_.size());
  std::vector<char> buffer(1 << 16);
  bool ok = true;
  for (Connection& connection : connections_) {
    ok = ok && send_round(connection, now_ns());
  }
  while (ok && phase_.load(std::memory_order_acquire) != 2) {
    // Wait for answers, or for the earliest think time to end.
    std::uint64_t now = now_ns();
    std::uint64_t wake = now + 100'000'000;  // re-check phase_ at least 10/s
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      const Connection& connection = connections_[i];
      polls[i] = {connection.fd,
                  static_cast<short>(connection.waiting ? POLLIN : 0), 0};
      if (!connection.waiting) wake = std::min(wake, connection.next_send_ns);
    }
    const std::uint64_t wait = wake > now ? wake - now : 0;
    const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                           static_cast<long>(wait % 1'000'000'000)};
    if (ppoll(polls.data(), polls.size(), &timeout, nullptr) < 0) {
      ok = false;
      break;
    }
    now = now_ns();
    for (std::size_t i = 0; ok && i < connections_.size(); ++i) {
      Connection& connection = connections_[i];
      if (connection.waiting && polls[i].revents != 0) {
        const ssize_t n = recv(connection.fd, buffer.data(), buffer.size(),
                               MSG_DONTWAIT);
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
          ok = false;
          break;
        }
        if (n > 0) {
          connection.in.append(buffer.data(), static_cast<std::size_t>(n));
          take_answers(connection, now);
        }
      }
      if (!connection.waiting && now >= connection.next_send_ns) {
        ok = send_round(connection, now);
      }
    }
  }
  if (!ok) fail("connection lost");
  for (const Connection& connection : connections_) close(connection.fd);
}

double median_throughput(const ClientStats& stats) {
  std::vector<double> per_second;
  for (const Interval& interval : stats.intervals) {
    per_second.push_back(static_cast<double>(interval.answers));
  }
  return median(per_second);
}

double median_interval_latency(const ClientStats& stats, double q) {
  std::vector<double> per_second;
  for (const Interval& interval : stats.intervals) {
    if (!interval.latency_us.empty()) {
      per_second.push_back(quantile(interval.latency_us, q));
    }
  }
  return median(per_second);
}

}  // namespace perfbench
