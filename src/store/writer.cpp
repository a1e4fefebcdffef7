#include "store/writer.h"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "fault/atomic_file.h"
#include "net/crc32.h"
#include "net/error.h"

namespace mapit::store {

namespace {

template <typename T>
void append_raw(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename Record, typename KeyFn>
void ensure_strictly_sorted(const std::vector<Record>& records, KeyFn key,
                            const char* what) {
  for (std::size_t i = 1; i < records.size(); ++i) {
    MAPIT_ENSURE(key(records[i - 1]) < key(records[i]),
                 std::string("snapshot writer: ") + what +
                     " not strictly sorted at index " + std::to_string(i));
  }
}

constexpr auto inference_key = [](const InferenceRecord& r) {
  return std::make_tuple(r.address, r.direction);
};
constexpr auto link_key = [](const LinkRecord& r) {
  return std::make_tuple(r.as_a, r.as_b, r.low, r.high);
};
constexpr auto prefix_key = [](const PrefixRecord& r) {
  return std::make_tuple(r.network, r.length);
};
constexpr auto mapping_key = [](const MappingRecord& r) {
  return std::make_tuple(r.address, r.direction);
};

[[nodiscard]] std::vector<PrefixRecord> prefix_records(
    const std::vector<std::pair<net::Prefix, asdata::Asn>>& entries) {
  std::vector<PrefixRecord> out;
  out.reserve(entries.size());
  for (const auto& [prefix, asn] : entries) out.push_back(to_record(prefix, asn));
  std::sort(out.begin(), out.end(), [](const PrefixRecord& a,
                                       const PrefixRecord& b) {
    return prefix_key(a) < prefix_key(b);
  });
  return out;
}

}  // namespace

InferenceRecord to_record(const core::Inference& inference) {
  InferenceRecord record{};
  record.address = inference.half.address.value();
  record.direction =
      static_cast<std::uint8_t>(graph::direction_bit(inference.half.direction));
  record.kind = static_cast<std::uint8_t>(inference.kind);
  record.flags = inference.uncertain ? kInferenceUncertain : 0;
  record.router_as = inference.router_as;
  record.other_as = inference.other_as;
  record.votes = inference.votes;
  record.neighbor_count = inference.neighbor_count;
  return record;
}

LinkRecord to_record(const core::InterAsLink& link) {
  LinkRecord record{};
  record.low = link.low.value();
  record.high = link.high.value();
  record.as_a = link.as_a;
  record.as_b = link.as_b;
  record.supporting_inferences = link.supporting_inferences;
  record.votes = link.votes;
  record.neighbor_count = link.neighbor_count;
  record.flags = static_cast<std::uint8_t>(
      (link.via_stub_heuristic ? kLinkViaStub : 0) |
      (link.conflicting ? kLinkConflicting : 0));
  return record;
}

PrefixRecord to_record(const net::Prefix& prefix, asdata::Asn asn) {
  PrefixRecord record{};
  record.network = prefix.network().value();
  record.asn = asn;
  record.length = static_cast<std::uint8_t>(prefix.length());
  return record;
}

SnapshotData make_snapshot_data(const core::Result& result,
                                const graph::InterfaceGraph& graph,
                                const bgp::Ip2As& ip2as) {
  SnapshotData data;

  // Both lists are in (address, direction) order and name disjoint
  // halves, so one merge orders the section.
  data.inferences.reserve(result.inferences.size() + result.uncertain.size());
  for (const core::Inference& inference : result.inferences) {
    data.inferences.push_back(to_record(inference));
  }
  for (const core::Inference& inference : result.uncertain) {
    InferenceRecord record = to_record(inference);
    record.flags |= kInferenceUncertain;
    data.inferences.push_back(record);
  }
  std::inplace_merge(
      data.inferences.begin(),
      data.inferences.begin() +
          static_cast<std::ptrdiff_t>(result.inferences.size()),
      data.inferences.end(),
      [](const InferenceRecord& a, const InferenceRecord& b) {
        return inference_key(a) < inference_key(b);
      });

  for (const core::InterAsLink& link : core::aggregate_links(result, graph)) {
    data.links.push_back(to_record(link));
  }
  std::sort(data.links.begin(), data.links.end(),
            [](const LinkRecord& a, const LinkRecord& b) {
              return link_key(a) < link_key(b);
            });

  data.bgp_prefixes = prefix_records(ip2as.bgp_entries());
  data.fallback_prefixes = prefix_records(ip2as.fallback_entries());

  // Already in (address, direction) order; serialize_snapshot checks it.
  data.mappings.reserve(result.final_mappings.size());
  for (const auto& [half, asn] : result.final_mappings) {
    MappingRecord record{};
    record.address = half.address.value();
    record.asn = asn;
    record.direction =
        static_cast<std::uint8_t>(graph::direction_bit(half.direction));
    data.mappings.push_back(record);
  }
  return data;
}

std::string serialize_snapshot(const SnapshotData& data) {
  ensure_strictly_sorted(data.inferences, inference_key, "inference section");
  ensure_strictly_sorted(data.links, link_key, "link section");
  ensure_strictly_sorted(data.bgp_prefixes, prefix_key, "BGP prefix section");
  ensure_strictly_sorted(data.fallback_prefixes, prefix_key,
                         "fallback prefix section");
  ensure_strictly_sorted(data.mappings, mapping_key, "mapping section");

  struct SectionPlan {
    SectionId id;
    const char* bytes;
    std::uint64_t size;
    std::uint64_t record_count;
  };
  const auto plan_of = [](SectionId id, const auto& records) {
    using Record = typename std::decay_t<decltype(records)>::value_type;
    return SectionPlan{id, reinterpret_cast<const char*>(records.data()),
                       records.size() * sizeof(Record), records.size()};
  };
  const SectionPlan plans[] = {
      plan_of(SectionId::kInferences, data.inferences),
      plan_of(SectionId::kLinks, data.links),
      plan_of(SectionId::kBgpPrefixes, data.bgp_prefixes),
      plan_of(SectionId::kFallbackPrefixes, data.fallback_prefixes),
      plan_of(SectionId::kMappings, data.mappings),
  };
  constexpr std::uint32_t kSectionCount = 5;

  std::string out;
  out.resize(sizeof(SnapshotHeader), '\0');

  // Section table, with offsets computed as if writing the payloads in
  // order, each padded up to kSectionAlign.
  std::uint64_t cursor =
      sizeof(SnapshotHeader) + kSectionCount * sizeof(SectionEntry);
  for (const SectionPlan& plan : plans) {
    cursor = (cursor + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
    SectionEntry entry{};
    entry.id = static_cast<std::uint32_t>(plan.id);
    entry.offset = cursor;
    entry.size = plan.size;
    entry.record_count = plan.record_count;
    append_raw(out, entry);
    cursor += plan.size;
  }
  for (const SectionPlan& plan : plans) {
    out.resize((out.size() + kSectionAlign - 1) / kSectionAlign *
                   kSectionAlign,
               '\0');
    if (plan.size != 0) out.append(plan.bytes, plan.size);
  }

  SnapshotHeader header{};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  header.endian = kEndianMarker;
  header.version = kSnapshotVersion;
  header.file_size = out.size();
  header.section_count = kSectionCount;
  header.payload_crc32 = net::crc32(out.data() + sizeof(SnapshotHeader),
                               out.size() - sizeof(SnapshotHeader));
  std::memcpy(out.data(), &header, sizeof(header));
  return out;
}

WriteInfo write_snapshot_file(const SnapshotData& data,
                              const std::string& path, fault::Io& io) {
  const std::string bytes = serialize_snapshot(data);
  fault::write_file_atomic(path, bytes, io);
  WriteInfo info;
  info.bytes = bytes.size();
  std::memcpy(&info.payload_crc32,
              bytes.data() + offsetof(SnapshotHeader, payload_crc32),
              sizeof(info.payload_crc32));
  return info;
}

}  // namespace mapit::store
