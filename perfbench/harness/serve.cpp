// serve_mix: query::AsyncServer over the cold_snapshot snapshot, queried by
// three closed-loop pipelined connections (one MQB1, two line protocol)
// driven by one client thread.
// Only the query module runs: socket, protocol, lookup, format.
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <random>
#include <thread>

#include "load.h"
#include "query/async_server.h"
#include "query/protocol.h"
#include "query/query_engine.h"
#include "serve.h"
#include "store/reader.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kQueries = 4096;

std::string dir_char(std::uint8_t direction) {
  return direction == 0 ? "f" : "b";
}

}  // namespace

ServingServer::ServingServer(const mapit::query::QueryEngine& engine)
    : server_(engine, mapit::query::ServerOptions{}) {
  start();
}

ServingServer::ServingServer(mapit::query::SnapshotHub& hub)
    : server_(hub, mapit::query::ServerOptions{}) {
  start();
}

void ServingServer::start() {
  loop_ = std::thread([this] {
    exclude_thread_from_alloc_counts();
    server_.serve_forever();
  });
  if (pthread_getcpuclockid(loop_.native_handle(), &loop_clock_) != 0) {
    server_.stop();
    loop_.join();
    throw std::runtime_error("no CPU clock for the event loop thread");
  }
  // Ready means answering: one HEALTH round trip. It also keeps stop() from
  // racing a loop that has not started yet.
  const int fd = connect_loopback(server_.port());
  const bool ok = fd >= 0 && !ask_health(fd).empty();
  if (fd >= 0) close(fd);
  if (!ok) {
    server_.stop();
    loop_.join();
    throw std::runtime_error("query server did not answer HEALTH");
  }
}

std::string ask_health(int fd) {
  if (!send_all(fd, "HEALTH\n")) return "";
  std::string answer;
  char buffer[512];
  while (answer.find('\n') == std::string::npos) {
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) return "";
    answer.append(buffer, static_cast<std::size_t>(n));
  }
  return answer;
}

double ServingServer::loop_cpu_ms() const {
  timespec ts{};
  clock_gettime(loop_clock_, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

ServingServer::~ServingServer() {
  server_.stop();
  if (loop_.joinable()) loop_.join();
}

std::vector<QueryMix> make_query_mix(const mapit::store::SnapshotReader& reader,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto inferences = reader.inferences();
  const auto links = reader.links();
  if (inferences.empty() || links.empty()) {
    throw std::runtime_error("snapshot has no inferences or links");
  }
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<QueryMix> mix;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const std::uint64_t roll = rng() % 100;
    const mapit::store::InferenceRecord& record = inferences[pick(inferences.size())];
    const std::string address = mapit::net::Ipv4Address(record.address).to_string();
    if (roll < 60) {
      if (i % 2 == 0) {
        mix.push_back({"lookup", "lookup " + address + " " + dir_char(record.direction)});
      } else {
        // Flipping the middle octets lands outside the inferred set almost
        // always; the traced run reports the exact hit ratio.
        const std::string miss =
            mapit::net::Ipv4Address(record.address ^ 0x00FF00FFu).to_string();
        mix.push_back({"lookup", "lookup " + miss + " " + dir_char(rng() % 2)});
      }
    } else if (roll < 75) {
      mix.push_back({"addr", "addr " + address});
    } else if (roll < 90) {
      mix.push_back({"ip2as", i % 2 == 0 ? "ip2as " + address
                                         : "ip2as " + address + " " +
                                               dir_char(record.direction)});
    } else {
      const mapit::store::LinkRecord& link = links[pick(links.size())];
      mix.push_back({"links", "links " + std::to_string(link.as_a) + " " +
                                  std::to_string(link.as_b)});
    }
  }
  return mix;
}

int run_serve(const Args& args) {
  using namespace mapit;
  const std::string snapshot = args.get("inputs") + "/snapshot.bin";
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::uint64_t seconds = args.get_u64("seconds", 10);
  Result result;

  // Set-up: snapshot open + QueryEngine + server start, repeated; the last
  // instance serves.
  std::vector<double> setups;
  std::unique_ptr<store::SnapshotReader> reader;
  std::unique_ptr<query::QueryEngine> engine;
  std::unique_ptr<ServingServer> server;
  for (int i = 0; i < 51; ++i) {
    server.reset();
    engine.reset();
    reader.reset();
    const std::uint64_t start = now_ns();
    reader = std::make_unique<store::SnapshotReader>(
        store::SnapshotReader::open(snapshot));
    engine = std::make_unique<query::QueryEngine>(*reader);
    server = std::make_unique<ServingServer>(*engine);
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  result.metric("setup_s", median(setups), "s");

  const std::vector<QueryMix> mix = make_query_mix(*reader, seed);
  std::vector<std::string> queries;
  std::vector<std::string> expected;
  for (const QueryMix& q : mix) {
    queries.push_back(q.line);
    expected.push_back(engine->answer(q.line));
  }

  double protocol_ns = 0;
  if (tracing()) {
    // Direct QueryEngine::answer per verb, then ProtocolSession::feed per
    // request with no socket. Fixed pass counts: the same calls every run.
    constexpr int kPasses = 20;
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    constexpr std::pair<const char*, const char*> kVerbs[] = {
        {"lookup", "query.answer.lookup"},
        {"addr", "query.answer.addr"},
        {"ip2as", "query.answer.ip2as"},
        {"links", "query.answer.links"}};
    for (const auto& [verb, span_name] : kVerbs) {
      std::vector<const std::string*> lines;
      for (const QueryMix& q : mix) {
        if (q.verb == verb) lines.push_back(&q.line);
      }
      for (int pass = 0; pass < kPasses; ++pass) {
        const Span span(span_name, static_cast<std::uint32_t>(pass),
                        lines.size());
        for (const std::string* line : lines) {
          const std::string answer = engine->answer(*line);
          if (pass == 0 && std::string_view(verb) == "lookup") {
            ++lookups;
            if (answer != "MISS") ++hits;
          }
        }
      }
    }
    counter("query.lookup.hit_ratio", 0,
            static_cast<double>(hits) / static_cast<double>(lookups));
    std::string out;
    std::uint64_t protocol_total = 0;
    std::vector<std::string> requests;
    for (const std::string& line : queries) requests.push_back(line + "\n");
    for (int pass = 0; pass < kPasses; ++pass) {
      query::ProtocolSession session(*engine);
      const std::uint64_t start = now_ns();
      {
        const Span span("query.protocol.line", static_cast<std::uint32_t>(pass),
                        requests.size());
        for (const std::string& request : requests) {
          out.clear();
          session.feed(request, out);
        }
      }
      protocol_total += now_ns() - start;
    }
    std::vector<std::string> frames;
    for (const std::string& line : queries) {
      std::string frame;
      query::append_binary_frame(frame, line);
      frames.push_back(std::move(frame));
    }
    for (int pass = 0; pass < kPasses; ++pass) {
      query::ProtocolSession session(*engine);
      session.feed(std::string_view(query::kBinaryProtocolMagic, 4), out);
      const std::uint64_t start = now_ns();
      {
        const Span span("query.protocol.binary", static_cast<std::uint32_t>(pass),
                        frames.size());
        for (const std::string& frame : frames) {
          out.clear();
          session.feed(frame, out);
        }
      }
      protocol_total += now_ns() - start;
    }
    protocol_ns = static_cast<double>(protocol_total) /
                  static_cast<double>(2 * kPasses * queries.size());
  }

  ClientConfig config;
  config.port = server->port();
  for (std::size_t c = 0; c < 3; ++c) {
    config.connections.push_back(
        {c == 0, c * (kQueries / 3 / kWindow) * kWindow});
  }
  config.queries = &queries;
  config.expected = &expected;
  LoadClient client(config, seconds);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const std::uint64_t start = now_ns();
  const double cpu_start = server->loop_cpu_ms();
  client.begin_measure(start);
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  const double cpu_ms = server->loop_cpu_ms() - cpu_start;
  client.stop();

  const ClientStats& stats = client.stats();
  std::uint64_t answers = 0;
  for (const Interval& interval : stats.intervals) answers += interval.answers;
  if (stats.failures > 0) {
    result.fail("client: " + std::to_string(stats.failures) +
                    " bad answers, first " + stats.first_failure,
                stats.failures);
  }
  const auto& loop = server->server();
  if (loop.shed_connections() + loop.refused_connections() > 0) {
    result.fail("server shed or refused connections",
                loop.shed_connections() + loop.refused_connections());
  }
  counter("query.server.shed", 0, static_cast<double>(loop.shed_connections()));
  counter("query.server.refused", 0,
          static_cast<double>(loop.refused_connections()));
  result.attempted(answers);
  if (answers == 0) throw std::runtime_error("no answers in the window");

  // Median over the window's seconds (see load.h); each second holds
  // thousands of samples, so its p99 has far more than ten beyond it.
  const double p50 = median_interval_latency(stats, 0.50);
  const double p99 = median_interval_latency(stats, 0.99);
  const double qps = median_throughput(stats);
  if (tracing()) counter("query.socket_share", 0, 1.0 - protocol_ns / (p50 * 1e3));
  result.metric("op_latency_ms", p50 / 1e3, "ms");
  result.metric("op_latency_ms_tail", p99 / 1e3, "ms");
  result.metric("op_cpu_ms", cpu_ms / static_cast<double>(answers), "ms");
  result.metric("throughput_per_s", qps, "1/s");
  result.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  result.metric("query_qps", qps, "1/s");
  result.metric("query_latency_us_p50", p50, "us");
  result.metric("query_latency_us_p99", p99, "us");
  server.reset();
  result.print();
  return 0;
}

}  // namespace perfbench
