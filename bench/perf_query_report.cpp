// Snapshot/query performance report: builds the standard experiment's
// snapshot artifact, then times the full serving path and emits a JSON
// summary for the repo's bench trajectory (BENCH_query.json):
//
//   - snapshot build (run -> records -> serialized bytes) and write time
//   - mmap open + validate time (the cold-start cost of a server restart)
//   - direct QueryEngine::lookup throughput, single- and multi-threaded
//   - loopback serve throughput of the AsyncServer with 4 pipelined
//     clients, over the line protocol and the length-prefixed binary
//     protocol
//   - unpipelined request/answer round-trip latency (p50/p99
//     microseconds), and qps-per-core (throughput normalized by
//     hardware_threads, the honest figure for comparing across machines)
//
//   perf_query_report [--out FILE] [--reps N] [--clients N] [--batch N]
//
// The report also records the artifact's size and CRC; the CI snapshot
// smoke compares a freshly built artifact's CRC against the committed
// value, so a format or determinism regression shows up as a checksum
// drift in review. `scaling_valid` is false when the machine has fewer
// cores than the widest concurrency measured here (4-thread lookups /
// `clients` parallel clients) — such throughput numbers measure scheduling
// pressure, not scaling.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiment.h"
#include "query/async_server.h"
#include "query/query_engine.h"
#include "query/server.h"
#include "store/reader.h"
#include "store/writer.h"

namespace {

using namespace mapit;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One pipelined loopback client: sends the whole batch, then drains until
/// it has seen one answer line per query. Returns false on socket failure.
bool run_client(std::uint16_t port, const std::string& batch,
                std::size_t expected_lines, int reps) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&address),
              sizeof(address)) != 0) {
    close(fd);
    return false;
  }
  std::vector<char> buffer(1 << 16);
  for (int rep = 0; rep < reps; ++rep) {
    std::size_t sent = 0;
    while (sent < batch.size()) {
      const ssize_t n = send(fd, batch.data() + sent, batch.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) {
        close(fd);
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    std::size_t lines = 0;
    while (lines < expected_lines) {
      const ssize_t n = recv(fd, buffer.data(), buffer.size(), 0);
      if (n <= 0) {
        close(fd);
        return false;
      }
      for (ssize_t i = 0; i < n; ++i) {
        if (buffer[static_cast<std::size_t>(i)] == '\n') ++lines;
      }
    }
  }
  close(fd);
  return true;
}

int connect_nodelay(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&address),
              sizeof(address)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// One pipelined binary-protocol client: sends the magic once, then per
/// rep sends a pre-framed batch and counts response frames until all
/// answers arrived. Returns false on socket failure or torn framing.
bool run_binary_client(std::uint16_t port, const std::string& framed_batch,
                       std::size_t expected_frames, int reps) {
  const int fd = connect_nodelay(port);
  if (fd < 0) return false;
  if (!send_all(fd, query::kBinaryProtocolMagic,
                sizeof(query::kBinaryProtocolMagic))) {
    close(fd);
    return false;
  }
  std::vector<char> buffer(1 << 16);
  // Frame-parser state persists across reads: TCP delivers headers and
  // payloads at arbitrary boundaries.
  unsigned char header[4];
  std::size_t header_have = 0;
  std::uint64_t payload_left = 0;
  for (int rep = 0; rep < reps; ++rep) {
    if (!send_all(fd, framed_batch.data(), framed_batch.size())) {
      close(fd);
      return false;
    }
    std::size_t frames = 0;
    while (frames < expected_frames) {
      const ssize_t n = recv(fd, buffer.data(), buffer.size(), 0);
      if (n <= 0) {
        close(fd);
        return false;
      }
      for (ssize_t i = 0; i < n;) {
        if (payload_left > 0) {
          const std::uint64_t eaten = std::min<std::uint64_t>(
              payload_left, static_cast<std::uint64_t>(n - i));
          payload_left -= eaten;
          i += static_cast<ssize_t>(eaten);
          if (payload_left == 0) ++frames;
          continue;
        }
        header[header_have++] =
            static_cast<unsigned char>(buffer[static_cast<std::size_t>(i)]);
        ++i;
        if (header_have == sizeof(header)) {
          header_have = 0;
          payload_left = static_cast<std::uint64_t>(header[0]) |
                         static_cast<std::uint64_t>(header[1]) << 8 |
                         static_cast<std::uint64_t>(header[2]) << 16 |
                         static_cast<std::uint64_t>(header[3]) << 24;
          if (payload_left == 0) ++frames;
        }
      }
    }
  }
  close(fd);
  return true;
}

struct LatencyStats {
  double p50_us = -1.0;
  double p99_us = -1.0;
};

/// Unpipelined request/answer round trips: one query line on the wire at a
/// time, full answer awaited before the next send. The honest per-request
/// latency a non-batching client sees (throughput numbers hide it).
LatencyStats measure_latency(std::uint16_t port, const std::string& line,
                             int samples) {
  LatencyStats stats;
  const int fd = connect_nodelay(port);
  if (fd < 0) return stats;
  std::vector<char> buffer(1 << 12);
  std::vector<double> rtts_us;
  rtts_us.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const auto start = Clock::now();
    if (!send_all(fd, line.data(), line.size())) break;
    bool answered = false;
    while (!answered) {
      const ssize_t n = recv(fd, buffer.data(), buffer.size(), 0);
      if (n <= 0) {
        close(fd);
        return stats;
      }
      answered = std::memchr(buffer.data(), '\n',
                             static_cast<std::size_t>(n)) != nullptr;
    }
    rtts_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
  }
  close(fd);
  if (rtts_us.empty()) return stats;
  std::sort(rtts_us.begin(), rtts_us.end());
  const auto nearest_rank = [&](double p) {
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(rtts_us.size() - 1) + 0.5);
    return rtts_us[std::min(rank, rtts_us.size() - 1)];
  };
  stats.p50_us = nearest_rank(0.50);
  stats.p99_us = nearest_rank(0.99);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_query.json";
  int reps = 5;
  int clients = 4;
  std::size_t batch_queries = 2000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--reps") {
      reps = std::stoi(next());
    } else if (arg == "--clients") {
      clients = std::stoi(next());
    } else if (arg == "--batch") {
      batch_queries = std::stoul(next());
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  std::cerr << "building standard experiment...\n";
  const auto experiment =
      eval::Experiment::build(eval::ExperimentConfig::standard());

  // --- snapshot build + write -------------------------------------------
  std::cerr << "building snapshot...\n";
  double build_ms = 0.0;
  std::string bytes;
  core::Result result;
  {
    const auto start = Clock::now();
    result = experiment->run_mapit();
    const store::SnapshotData data = store::make_snapshot_data(
        result, experiment->graph(), experiment->ip2as());
    bytes = store::serialize_snapshot(data);
    build_ms = ms_since(start);
  }
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "perf_query_snapshot.bin";
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // --- mmap open + validate ---------------------------------------------
  double open_best_ms = 0.0;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    const store::SnapshotReader probe = store::SnapshotReader::open(
        path.string());
    const double ms = ms_since(start);
    if (i == 0 || ms < open_best_ms) open_best_ms = ms;
  }
  const store::SnapshotReader reader = store::SnapshotReader::open(
      path.string());
  const query::QueryEngine engine(reader);

  // Query mix: every stored half (hits) plus one miss per hit.
  std::vector<std::pair<net::Ipv4Address, graph::Direction>> probes;
  for (const store::InferenceRecord& record : reader.inferences()) {
    probes.emplace_back(net::Ipv4Address(record.address),
                        record.direction == 0 ? graph::Direction::kForward
                                              : graph::Direction::kBackward);
    probes.emplace_back(net::Ipv4Address(record.address ^ 0x00FF00FFu),
                        graph::Direction::kForward);
  }

  // --- direct lookup throughput -----------------------------------------
  auto time_lookups = [&](int threads) {
    std::atomic<std::uint64_t> hits{0};
    const auto start = Clock::now();
    std::vector<std::thread> workers;
    const int sweeps = 50;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        std::uint64_t local = 0;
        for (int sweep = 0; sweep < sweeps; ++sweep) {
          for (const auto& [address, direction] : probes) {
            if (engine.lookup(address, direction) != nullptr) ++local;
          }
        }
        hits += local;
      });
    }
    for (std::thread& worker : workers) worker.join();
    const double seconds = ms_since(start) / 1000.0;
    const double total =
        static_cast<double>(probes.size()) * sweeps * threads;
    (void)hits;
    return total / seconds;
  };
  std::cerr << "timing direct lookups...\n";
  const double direct_qps_1 = time_lookups(1);
  const double direct_qps_4 = time_lookups(4);

  // --- serve throughput + latency -----------------------------------------
  std::string batch;
  for (std::size_t i = 0; i < batch_queries; ++i) {
    const auto& [address, direction] = probes[i % probes.size()];
    batch += "lookup ";
    batch += address.to_string();
    batch += direction == graph::Direction::kForward ? " f\n" : " b\n";
  }
  std::string framed_batch;
  for (std::size_t i = 0; i < batch_queries; ++i) {
    const auto& [address, direction] = probes[i % probes.size()];
    std::string line = "lookup " + address.to_string();
    line += direction == graph::Direction::kForward ? " f" : " b";
    query::append_binary_frame(framed_batch, line);
  }
  const std::string latency_line =
      "lookup " + probes.front().first.to_string() + " f\n";
  constexpr int kLatencySamples = 2000;

  // Parallel pipelined clients against an already-started server; -1 on
  // client failure.
  const auto time_serve = [&](std::uint16_t port, bool binary) -> double {
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    std::atomic<bool> ok{true};
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        const bool client_ok =
            binary ? run_binary_client(port, framed_batch, batch_queries, reps)
                   : run_client(port, batch, batch_queries, reps);
        if (!client_ok) ok = false;
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double seconds = ms_since(start) / 1000.0;
    if (!ok) return -1.0;
    return static_cast<double>(batch_queries) * reps * clients / seconds;
  };

  std::cerr << "timing async serve (" << clients << " clients)...\n";
  double serve_qps_async = 0.0;
  double serve_qps_async_binary = 0.0;
  LatencyStats async_latency;
  {
    query::AsyncServer server(engine, query::ServerOptions{});
    server.start();
    serve_qps_async = time_serve(server.port(), /*binary=*/false);
    serve_qps_async_binary = time_serve(server.port(), /*binary=*/true);
    async_latency = measure_latency(server.port(), latency_line,
                                    kLatencySamples);
    server.stop();
  }
  std::filesystem::remove(path);
  if (serve_qps_async < 0.0 || serve_qps_async_binary < 0.0) {
    std::cerr << "serve benchmark client failed\n";
    return 1;
  }

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const double cores = hardware_threads > 0 ? hardware_threads : 1;
  // Widest concurrency this report measures: the 4-thread direct lookups
  // and the `clients` parallel serve clients.
  const bool scaling_valid =
      cores >= std::max(4.0, static_cast<double>(clients));

  char crc_hex[9];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", reader.payload_crc32());

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"benchmark\": \"BM_SnapshotQuery\",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"snapshot_build_ms\": " << build_ms << ",\n"
      << "  \"snapshot_bytes\": " << bytes.size() << ",\n"
      << "  \"snapshot_crc32\": \"" << crc_hex << "\",\n"
      << "  \"mmap_open_best_ms\": " << open_best_ms << ",\n"
      << "  \"direct_lookup_qps_1thread\": " << direct_qps_1 << ",\n"
      << "  \"direct_lookup_qps_4thread\": " << direct_qps_4 << ",\n"
      << "  \"serve_clients\": " << clients << ",\n"
      << "  \"serve_batch_queries\": " << batch_queries << ",\n"
      << "  \"serve_qps_async\": " << serve_qps_async << ",\n"
      << "  \"serve_qps_async_per_core\": " << serve_qps_async / cores
      << ",\n"
      << "  \"serve_qps_async_binary\": " << serve_qps_async_binary << ",\n"
      << "  \"serve_async_p50_us\": " << async_latency.p50_us << ",\n"
      << "  \"serve_async_p99_us\": " << async_latency.p99_us << ",\n"
      << "  \"latency_samples\": " << kLatencySamples << ",\n"
      << "  \"standard_inferences\": " << result.inferences.size() << ",\n"
      << "  \"hardware_threads\": " << hardware_threads << ",\n"
      << "  \"scaling_valid\": " << (scaling_valid ? "true" : "false")
      << "\n"
      << "}\n";

  std::cout << "snapshot: " << bytes.size() << " bytes (crc32 " << crc_hex
            << "), built in " << build_ms << " ms, opens in " << open_best_ms
            << " ms\n"
            << "direct lookups: " << direct_qps_1 / 1e6 << " M qps (1 thread), "
            << direct_qps_4 / 1e6 << " M qps (4 threads)\n"
            << "serve: " << serve_qps_async / 1e3 << " k qps line, "
            << serve_qps_async_binary / 1e3 << " k qps binary, p50 "
            << async_latency.p50_us << " us, p99 " << async_latency.p99_us
            << " us (" << clients << " pipelined clients)\n";
  if (!scaling_valid) {
    std::cout << "note: scaling_valid=false — only " << hardware_threads
              << " hardware thread(s); concurrent figures are not scaling "
                 "evidence\n";
  }
  return 0;
}
