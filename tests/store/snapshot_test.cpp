// Snapshot format round-trip and corruption-rejection tests.
//
// The corruption sweeps are the load-bearing part: every bit flip,
// truncation point, and section-table lie must yield a SnapshotError —
// never a crash, sanitizer report, or silently wrong spans.
#include "store/format.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/crc32.h"
#include "net/error.h"
#include "store/reader.h"
#include "store/writer.h"
#include "test_util.h"

namespace mapit::store {
namespace {

SnapshotData sample_data() {
  SnapshotData data;
  data.inferences.push_back(
      InferenceRecord{0x0A000001u, 0, 0, 0, 0, 100, 200, 3, 4});
  data.inferences.push_back(
      InferenceRecord{0x0A000001u, 1, 1, 0, 0, 100, 300, 2, 4});
  data.inferences.push_back(
      InferenceRecord{0x0A000002u, 0, 2, kInferenceUncertain, 0, 300, 100,
                      1, 2});
  data.links.push_back(LinkRecord{0x0A000001u, 0x0A000002u, 100, 200, 2, 5,
                                  8, 0, {0, 0, 0}});
  data.links.push_back(LinkRecord{0x0A000003u, 0x0A000004u, 100, 300, 1, 3,
                                  4, kLinkViaStub, {0, 0, 0}});
  data.bgp_prefixes.push_back(PrefixRecord{0x0A000000u, 100, 8, {0, 0, 0}});
  data.bgp_prefixes.push_back(PrefixRecord{0x0A000000u, 200, 24, {0, 0, 0}});
  data.fallback_prefixes.push_back(
      PrefixRecord{0xC0000000u, 999, 4, {0, 0, 0}});
  data.mappings.push_back(MappingRecord{0x0A000001u, 300, 1, {0, 0, 0}});
  return data;
}

/// Recomputes and patches payload_crc32 after deliberate tampering, so the
/// tampered image gets past the CRC gate and exercises the later checks.
std::string reseal(std::string bytes) {
  const std::uint32_t crc =
      net::crc32(bytes.data() + sizeof(SnapshotHeader),
                 bytes.size() - sizeof(SnapshotHeader));
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, payload_crc32), &crc,
              sizeof(crc));
  return bytes;
}

void expect_equal(const SnapshotReader& reader, const SnapshotData& data) {
  ASSERT_EQ(reader.inferences().size(), data.inferences.size());
  for (std::size_t i = 0; i < data.inferences.size(); ++i) {
    EXPECT_EQ(std::memcmp(&reader.inferences()[i], &data.inferences[i],
                          sizeof(InferenceRecord)),
              0)
        << "inference " << i;
  }
  ASSERT_EQ(reader.links().size(), data.links.size());
  for (std::size_t i = 0; i < data.links.size(); ++i) {
    EXPECT_EQ(
        std::memcmp(&reader.links()[i], &data.links[i], sizeof(LinkRecord)),
        0)
        << "link " << i;
  }
  ASSERT_EQ(reader.bgp_prefixes().size(), data.bgp_prefixes.size());
  ASSERT_EQ(reader.fallback_prefixes().size(), data.fallback_prefixes.size());
  ASSERT_EQ(reader.mappings().size(), data.mappings.size());
}

TEST(SnapshotFormat, Crc32MatchesKnownVectors) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(net::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(net::crc32("", 0), 0u);
  // Incremental chaining equals one-shot.
  const std::uint32_t first = net::crc32("1234", 4);
  EXPECT_EQ(net::crc32("56789", 5, first), 0xCBF43926u);
}

TEST(SnapshotRoundTrip, FromBytes) {
  const SnapshotData data = sample_data();
  const std::string bytes = serialize_snapshot(data);
  const SnapshotReader reader = SnapshotReader::from_bytes(bytes);
  expect_equal(reader, data);
  EXPECT_EQ(reader.version(), kSnapshotVersion);
  EXPECT_EQ(reader.size_bytes(), bytes.size());
}

TEST(SnapshotRoundTrip, EmptySectionsAreValid) {
  const SnapshotData data;  // all sections empty
  const SnapshotReader reader = SnapshotReader::from_bytes(
      serialize_snapshot(data));
  EXPECT_TRUE(reader.inferences().empty());
  EXPECT_TRUE(reader.links().empty());
  EXPECT_TRUE(reader.mappings().empty());
}

TEST(SnapshotRoundTrip, OpenFile) {
  const SnapshotData data = sample_data();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "mapit_snapshot_test.bin";
  const WriteInfo info = write_snapshot_file(data, path.string());
  const SnapshotReader reader = SnapshotReader::open(path.string());
  expect_equal(reader, data);
  EXPECT_EQ(reader.size_bytes(), info.bytes);
  EXPECT_EQ(reader.payload_crc32(), info.payload_crc32);
  std::filesystem::remove(path);
}

TEST(SnapshotRoundTrip, SerializationIsByteDeterministic) {
  const SnapshotData data = sample_data();
  EXPECT_EQ(serialize_snapshot(data), serialize_snapshot(data));
}

TEST(SnapshotRoundTrip, PipelineDataRoundTrips) {
  using testutil::MiniWorld;
  MiniWorld world({{"10.0.0.0/8", 100}, {"20.0.0.0/8", 200}},
                  {
                      "10|20.0.0.99|10.0.0.1 10.0.0.5 20.0.0.2 20.0.0.6",
                      "10|20.0.0.99|10.0.0.1 10.0.0.5 20.0.0.2",
                      "10|20.0.0.98|10.0.0.1 10.0.0.5 20.0.0.2",
                  });
  const core::Result result = world.run();
  const SnapshotData data =
      make_snapshot_data(result, world.graph(), world.ip2as());
  ASSERT_EQ(data.inferences.size(),
            result.inferences.size() + result.uncertain.size());
  ASSERT_EQ(data.mappings.size(), result.final_mappings.size());
  const SnapshotReader reader =
      SnapshotReader::from_bytes(serialize_snapshot(data));
  expect_equal(reader, data);
  // Every confident inference survives the record conversion bit-exactly.
  for (const core::Inference& inference : result.inferences) {
    const InferenceRecord record = to_record(inference);
    EXPECT_EQ(record.address, inference.half.address.value());
    EXPECT_EQ(record.router_as, inference.router_as);
    EXPECT_EQ(record.other_as, inference.other_as);
    EXPECT_EQ(record.votes, inference.votes);
    EXPECT_EQ(record.neighbor_count, inference.neighbor_count);
  }
}

TEST(SnapshotWriter, RejectsUnsortedSections) {
  SnapshotData data = sample_data();
  std::swap(data.inferences[0], data.inferences[1]);
  EXPECT_THROW((void)serialize_snapshot(data), mapit::InvariantError);

  data = sample_data();
  std::swap(data.bgp_prefixes[0], data.bgp_prefixes[1]);
  EXPECT_THROW((void)serialize_snapshot(data), mapit::InvariantError);

  data = sample_data();
  data.links.push_back(data.links[0]);  // duplicate key = not strictly sorted
  EXPECT_THROW((void)serialize_snapshot(data), mapit::InvariantError);
}

// ---------------------------------------------------------------------------
// Corruption sweeps.
// ---------------------------------------------------------------------------

TEST(SnapshotCorruption, EveryBitFlipIsRejected) {
  const std::string bytes = serialize_snapshot(sample_data());
  // Header reserved bytes are written as zero and ignored on read, and are
  // deliberately outside the CRC (the CRC covers post-header bytes only) —
  // flips there load fine. Everything else must be rejected.
  const std::size_t reserved_begin = offsetof(SnapshotHeader, reserved);
  const std::size_t reserved_end =
      reserved_begin + sizeof(SnapshotHeader{}.reserved);
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    if (byte >= reserved_begin && byte < reserved_end) continue;
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[byte] = static_cast<char>(
          static_cast<unsigned char>(corrupt[byte]) ^ (1u << bit));
      EXPECT_THROW((void)SnapshotReader::from_bytes(corrupt), SnapshotError)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(SnapshotCorruption, EveryTruncationIsRejected) {
  const std::string bytes = serialize_snapshot(sample_data());
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    EXPECT_THROW(
        (void)SnapshotReader::from_bytes(std::string_view(bytes).substr(
            0, length)),
        SnapshotError)
        << "truncated to " << length;
  }
  // Trailing garbage is equally fatal (file_size pins the exact length).
  EXPECT_THROW((void)SnapshotReader::from_bytes(bytes + "x"), SnapshotError);
}

TEST(SnapshotCorruption, TruncatedFileOnDisk) {
  const SnapshotData data = sample_data();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "mapit_snapshot_trunc.bin";
  write_snapshot_file(data, path.string());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_THROW((void)SnapshotReader::open(path.string()), SnapshotError);
  std::filesystem::remove(path);
}

TEST(SnapshotCorruption, WrongMagic) {
  std::string bytes = serialize_snapshot(sample_data());
  bytes[0] = 'X';
  EXPECT_THROW((void)SnapshotReader::from_bytes(bytes), SnapshotError);
}

TEST(SnapshotCorruption, WrongVersion) {
  std::string bytes = serialize_snapshot(sample_data());
  const std::uint32_t version = kSnapshotVersion + 1;
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, version), &version,
              sizeof(version));
  try {
    (void)SnapshotReader::from_bytes(bytes);
    FAIL() << "wrong version accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos)
        << error.what();
  }
}

TEST(SnapshotCorruption, WrongEndianness) {
  std::string bytes = serialize_snapshot(sample_data());
  const std::uint32_t swapped = 0x0D0C0B0Au;  // byteswapped kEndianMarker
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, endian), &swapped,
              sizeof(swapped));
  try {
    (void)SnapshotReader::from_bytes(bytes);
    FAIL() << "byteswapped artifact accepted";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("byte-order"),
              std::string::npos)
        << error.what();
  }
}

/// Patches one section-table field (resealing the CRC) and expects
/// rejection — the structural checks must hold even for images whose
/// checksum is intact.
void expect_table_tamper_rejected(std::uint64_t entry_field_offset,
                                  std::uint64_t value) {
  std::string bytes = serialize_snapshot(sample_data());
  std::memcpy(bytes.data() + sizeof(SnapshotHeader) + entry_field_offset,
              &value, sizeof(value));
  EXPECT_THROW((void)SnapshotReader::from_bytes(reseal(std::move(bytes))),
               SnapshotError);
}

TEST(SnapshotCorruption, SectionBoundsViolations) {
  // First entry's offset/size/record_count live at fixed offsets within the
  // first SectionEntry (offset 8, size 16, count 24).
  expect_table_tamper_rejected(8, 1u << 30);   // offset beyond the file
  expect_table_tamper_rejected(8, 3);          // offset into the table + odd
  expect_table_tamper_rejected(16, 1u << 30);  // size beyond the file
  expect_table_tamper_rejected(16, 7);         // size not record-granular
  expect_table_tamper_rejected(24, 1000);      // count disagrees with size
}

TEST(SnapshotCorruption, UnknownAndDuplicateSectionIds) {
  // Unknown id in the first entry.
  {
    std::string bytes = serialize_snapshot(sample_data());
    const std::uint32_t bogus = 0xDEADBEEFu;
    std::memcpy(bytes.data() + sizeof(SnapshotHeader), &bogus, sizeof(bogus));
    EXPECT_THROW((void)SnapshotReader::from_bytes(reseal(std::move(bytes))),
                 SnapshotError);
  }
  // Second entry's id duplicated into the first (also leaves one section
  // missing — either check may fire; both reject).
  {
    std::string bytes = serialize_snapshot(sample_data());
    std::uint32_t second_id = 0;
    std::memcpy(&second_id,
                bytes.data() + sizeof(SnapshotHeader) + sizeof(SectionEntry),
                sizeof(second_id));
    std::memcpy(bytes.data() + sizeof(SnapshotHeader), &second_id,
                sizeof(second_id));
    EXPECT_THROW((void)SnapshotReader::from_bytes(reseal(std::move(bytes))),
                 SnapshotError);
  }
}

TEST(SnapshotCorruption, EmptyAndTinyInputs) {
  EXPECT_THROW((void)SnapshotReader::from_bytes(""), SnapshotError);
  EXPECT_THROW((void)SnapshotReader::from_bytes("MAPITSNP"), SnapshotError);
  EXPECT_THROW((void)SnapshotReader::from_bytes(std::string(47, '\0')),
               SnapshotError);
}

TEST(SnapshotCorruption, MissingFileIsAnError) {
  EXPECT_THROW(
      (void)SnapshotReader::open("/nonexistent/mapit_snapshot.bin"),
      mapit::Error);
}

}  // namespace
}  // namespace mapit::store
