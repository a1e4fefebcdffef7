// Pieces of the serve_mix workload that ingest_live reuses for its readers.
#pragma once

#include <cstdint>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "query/async_server.h"
#include "query/hub.h"
#include "store/reader.h"

namespace perfbench {

/// query::AsyncServer with its event loop on a harness thread that is
/// excluded from allocation counts. Stops and joins on destruction.
class ServingServer {
 public:
  explicit ServingServer(const mapit::query::QueryEngine& engine);
  explicit ServingServer(mapit::query::SnapshotHub& hub);
  ~ServingServer();
  ServingServer(const ServingServer&) = delete;
  ServingServer& operator=(const ServingServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] const mapit::query::AsyncServer& server() const {
    return server_;
  }
  /// CPU time of the event loop thread so far (every answer is made there).
  [[nodiscard]] double loop_cpu_ms() const;

 private:
  void start();

  mapit::query::AsyncServer server_;
  std::thread loop_;
  clockid_t loop_clock_{};
};

/// Sends HEALTH on a connected line-protocol socket and returns the answer
/// ("OK crc32=... generation=N ...\n"); empty on failure.
[[nodiscard]] std::string ask_health(int fd);

struct QueryMix {
  std::string verb;
  std::string line;
};

/// 4096 queries drawn from the snapshot with `seed`: ~60% lookup (half hits,
/// half misses), 15% addr, 15% ip2as (base and per-half), 10% links.
[[nodiscard]] std::vector<QueryMix> make_query_mix(
    const mapit::store::SnapshotReader& reader, std::uint64_t seed);

}  // namespace perfbench
