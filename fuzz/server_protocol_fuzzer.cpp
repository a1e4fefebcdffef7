// Fuzz target: query::ProtocolSession — the socketless request framing
// shared with AsyncServer (mode sniff, line protocol with oversized-line
// ERR-and-discard, MQB1 binary framing with oversized-frame ERR-and-skip),
// driven against a real QueryEngine over a small in-memory snapshot.
//
// Three properties are checked on every input:
//   1. No escape: arbitrary bytes never raise past the session (the servers
//      have no try/catch around feed(), so an exception here is a
//      connection-killing bug in production).
//   2. Chunking invariance: delivering the same bytes one byte at a time
//      must produce exactly the answer stream of a single delivery — TCP
//      segmentation must never change what a client reads back.
//   3. Append contract: answers are appended in place to the caller's
//      buffer, which on a server already holds earlier answers; a buffer
//      that starts with other bytes must end up as those bytes followed by
//      exactly the single-delivery answer stream.
//
// max_line_bytes is deliberately tiny (64) so the fuzzer reaches the
// oversized-line and oversized-frame paths with short inputs.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "query/protocol.h"
#include "query/query_engine.h"
#include "store/reader.h"
#include "store/writer.h"

namespace {

constexpr std::size_t kMaxLineBytes = 64;

// One snapshot + engine for the whole process: the engine is immutable and
// concurrency-safe, so every fuzz iteration can share it.
const mapit::query::QueryEngine& shared_engine() {
  static const mapit::query::QueryEngine* engine = [] {
    using namespace mapit::store;
    SnapshotData data;
    // Addresses ascend, directions ascend within an address — the writer
    // enforces the documented section sort orders.
    data.inferences.push_back(
        InferenceRecord{0x0A000001u, 0, 0, 0, 0, 100, 200, 3, 4});
    data.inferences.push_back(
        InferenceRecord{0x0A000001u, 1, 1, 0, 0, 100, 300, 2, 4});
    data.links.push_back(
        LinkRecord{0x0A000001u, 0x0A000009u, 100, 200, 2, 3, 4, 0, {0, 0, 0}});
    data.bgp_prefixes.push_back(PrefixRecord{0x0A000000u, 200, 24, {0, 0, 0}});
    data.mappings.push_back(MappingRecord{0x0A000001u, 300, 1, {0, 0, 0}});
    static const std::string bytes = serialize_snapshot(data);
    static const SnapshotReader reader = SnapshotReader::from_bytes(bytes);
    return new mapit::query::QueryEngine(reader);
  }();
  return *engine;
}

/// Feeds `bytes` in `chunk`-sized pieces to a fresh session whose output
/// buffer starts as `prefix`.
std::string run_session(std::string_view bytes, std::size_t chunk,
                        std::string_view prefix = {}) {
  mapit::query::ProtocolSession session(
      shared_engine(), kMaxLineBytes,
      [](std::string& out) { out += "mapit up 1s conns 0"; });
  std::string out(prefix);
  for (std::size_t i = 0; i < bytes.size(); i += chunk) {
    session.feed(bytes.substr(i, chunk), out);
  }
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  const std::string whole = run_session(bytes, bytes.size() + 1);
  const std::string bytewise = run_session(bytes, 1);
  if (whole != bytewise) std::abort();  // chunking changed the answers
  constexpr std::string_view kPrefix = "earlier answers\n";
  const std::string prefixed =
      run_session(bytes, bytes.size() + 1, kPrefix);
  if (prefixed.size() != kPrefix.size() + whole.size() ||
      !prefixed.starts_with(kPrefix) || !prefixed.ends_with(whole)) {
    std::abort();  // an answer read or altered bytes it did not write
  }
  return 0;
}
