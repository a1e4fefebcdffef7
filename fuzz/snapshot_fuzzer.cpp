// Fuzz target: store::SnapshotReader::from_bytes — the binary snapshot
// validator (header, section table, CRC). When an image validates, a
// QueryEngine is built over it and queried: the reader's acceptance
// promise is that every accepted section is safe to binary-search, so
// post-validation lookups must not be able to crash either. Each query is
// answered twice, as a string of its own and appended to one buffer shared
// by all of them; the two must agree byte for byte.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "net/error.h"
#include "query/query_engine.h"
#include "store/reader.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  try {
    const mapit::store::SnapshotReader reader =
        mapit::store::SnapshotReader::from_bytes(bytes);
    const mapit::query::QueryEngine engine(reader);
    std::string appended;
    std::string separate;
    for (const std::string_view query :
         {"stats", "lookup 10.0.0.1 f", "addr 10.0.0.1", "ip2as 10.0.0.1",
          "ip2as 10.0.0.1 b", "links 100 200"}) {
      engine.append_answer(appended, query);
      separate += engine.answer(query);
    }
    if (appended != separate) std::abort();
  } catch (const mapit::Error&) {
    // Expected rejection path (SnapshotError derives from mapit::Error).
  }
  return 0;
}
