// On-disk snapshot format shared by the writer and the mmap reader.
//
// A snapshot is a single little-endian binary artifact serving a finished
// MAP-IT run: the per-half inference records, the aggregated inter-AS link
// table, the flattened IP2AS prefix layers, and the engine's final per-half
// mapping overrides. Layout:
//
//   SnapshotHeader                (48 bytes, at offset 0)
//   SectionEntry[section_count]   (32 bytes each, immediately after)
//   ...8-byte-aligned section payloads, in section-table order...
//
// Every section is a sorted flat array of one fixed-size record type, so a
// reader can binary-search the mmap'd bytes directly — no per-record
// allocation or parsing on load. `payload_crc32` (net::crc32, the IEEE
// CRC-32) covers every byte after the header (section table included); any
// bit flip past the header is detected before a record is ever
// dereferenced.
//
// Versioning: `kSnapshotVersion` bumps on any layout change; readers reject
// other versions outright (no in-place migration — snapshots are cheap to
// rebuild from a run). `endian` pins the byte order: the format is
// little-endian, and a reader on a mismatched host refuses the file instead
// of silently transposing fields. Reserved fields are written as zero and
// ignored on read.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "net/error.h"

namespace mapit::store {

/// A snapshot artifact that cannot be loaded: truncated, corrupted (CRC
/// mismatch), wrong magic/version, or structurally inconsistent. Every
/// rejection carries a diagnostic naming the first violated invariant.
class SnapshotError : public Error {
 public:
  using Error::Error;
};

inline constexpr char kSnapshotMagic[8] = {'M', 'A', 'P', 'I',
                                           'T', 'S', 'N', 'P'};
inline constexpr std::uint32_t kSnapshotVersion = 1;
/// Written natively by the writer; reads as 0x0A0B0C0D only on a host with
/// the same (little-endian) byte order.
inline constexpr std::uint32_t kEndianMarker = 0x0A0B0C0Du;
/// Every section payload starts on an 8-byte boundary so records may be
/// accessed through typed pointers into the mapping.
inline constexpr std::size_t kSectionAlign = 8;

struct SnapshotHeader {
  char magic[8];
  std::uint32_t endian;
  std::uint32_t version;
  std::uint64_t file_size;      ///< total artifact size in bytes
  std::uint32_t section_count;
  std::uint32_t payload_crc32;  ///< CRC-32 of bytes [sizeof(header), file_size)
  std::uint64_t reserved[2];
};
static_assert(sizeof(SnapshotHeader) == 48);

/// Section identifiers (FourCC-style little-endian constants).
enum class SectionId : std::uint32_t {
  kInferences = 0x52464E49u,   ///< "INFR": InferenceRecord[], (address, dir)
  kLinks = 0x4B4E494Cu,        ///< "LINK": LinkRecord[], (as_a, as_b, low, high)
  kBgpPrefixes = 0x42584650u,  ///< "PFXB": PrefixRecord[], (network, length)
  kFallbackPrefixes = 0x46584650u,  ///< "PFXF": PrefixRecord[], same order
  kMappings = 0x5350414Du,     ///< "MAPS": MappingRecord[], (address, dir)
};

struct SectionEntry {
  std::uint32_t id;            ///< SectionId value
  std::uint32_t reserved;
  std::uint64_t offset;        ///< absolute file offset, kSectionAlign-aligned
  std::uint64_t size;          ///< payload bytes (record_count * record size)
  std::uint64_t record_count;
};
static_assert(sizeof(SectionEntry) == 32);

// ---------------------------------------------------------------------------
// Record types. All fields are fixed-width with explicit padding, 4-byte
// aligned, trivially copyable, and hold host-order integers (the endianness
// marker guarantees host order == file order). Addresses are the library's
// host-order IPv4 values; directions use graph::direction_bit encoding
// (forward = 0, backward = 1); kinds use core::InferenceKind's underlying
// values.
// ---------------------------------------------------------------------------

/// Inference flag bits.
inline constexpr std::uint8_t kInferenceUncertain = 0x01;

/// One per-interface-half inference, sorted by (address, direction).
struct InferenceRecord {
  std::uint32_t address;
  std::uint8_t direction;
  std::uint8_t kind;
  std::uint8_t flags;
  std::uint8_t reserved;
  std::uint32_t router_as;
  std::uint32_t other_as;
  std::uint32_t votes;
  std::uint32_t neighbor_count;
};
static_assert(sizeof(InferenceRecord) == 24);

/// Link flag bits.
inline constexpr std::uint8_t kLinkViaStub = 0x01;
inline constexpr std::uint8_t kLinkConflicting = 0x02;

/// One aggregated inter-AS link, sorted by (as_a, as_b, low, high) with
/// as_a <= as_b, so per-AS-pair enumeration is an equal_range.
struct LinkRecord {
  std::uint32_t low;   ///< lower interface address of the link prefix
  std::uint32_t high;  ///< inferred other-side address
  std::uint32_t as_a;  ///< lower ASN of the pair
  std::uint32_t as_b;
  std::uint32_t supporting_inferences;
  std::uint32_t votes;
  std::uint32_t neighbor_count;
  std::uint8_t flags;
  std::uint8_t reserved[3];
};
static_assert(sizeof(LinkRecord) == 32);

/// One IP2AS prefix, sorted by (network, length): the flat binary-search
/// equivalent of a net::PrefixTrie layer.
struct PrefixRecord {
  std::uint32_t network;  ///< host bits zero
  std::uint32_t asn;
  std::uint8_t length;    ///< 0..32
  std::uint8_t reserved[3];
};
static_assert(sizeof(PrefixRecord) == 12);

/// One final per-half IP2AS override, sorted by (address, direction).
struct MappingRecord {
  std::uint32_t address;
  std::uint32_t asn;
  std::uint8_t direction;
  std::uint8_t reserved[3];
};
static_assert(sizeof(MappingRecord) == 12);

}  // namespace mapit::store
