#include "store/reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/crc32.h"

namespace mapit::store {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw SnapshotError("snapshot: " + what);
}

/// Reads a record type out of the image by offset. memcpy keeps this free
/// of alignment assumptions for the header/section table (section payloads
/// are separately guaranteed kSectionAlign-aligned for in-place spans).
template <typename T>
T read_at(const std::byte* data, std::uint64_t offset) {
  T value;
  std::memcpy(&value, data + offset, sizeof(T));
  return value;
}

}  // namespace

SnapshotReader SnapshotReader::open(const std::string& path, fault::Io& io) {
  const int fd = io.open(path.c_str(), O_RDONLY | O_CLOEXEC, 0);
  if (fd < 0) {
    throw Error("snapshot: cannot open " + path + ": " +
                std::strerror(errno));
  }
  struct stat st {};
  if (io.fstat(fd, &st) != 0) {
    const int err = errno;
    io.close(fd);
    throw Error("snapshot: cannot stat " + path + ": " + std::strerror(err));
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < sizeof(SnapshotHeader)) {
    io.close(fd);
    reject(path + ": file smaller than header (" + std::to_string(size) +
           " bytes)");
  }
  void* mapping =
      ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  const int map_err = errno;
  io.close(fd);
  if (mapping == MAP_FAILED) {
    throw Error("snapshot: mmap of " + path + " failed: " +
                std::strerror(map_err));
  }

  SnapshotReader reader;
  reader.mapping_ = mapping;
  reader.data_ = static_cast<const std::byte*>(mapping);
  reader.size_ = size;
  reader.validate();  // on throw, reader's destructor unmaps
  return reader;
}

SnapshotReader SnapshotReader::from_bytes(std::string_view bytes) {
  SnapshotReader reader;
  reader.owned_.resize((bytes.size() + 7) / 8);
  if (!bytes.empty()) {
    std::memcpy(reader.owned_.data(), bytes.data(), bytes.size());
  }
  reader.data_ = reinterpret_cast<const std::byte*>(reader.owned_.data());
  reader.size_ = bytes.size();
  if (reader.size_ < sizeof(SnapshotHeader)) {
    reject("image smaller than header (" + std::to_string(reader.size_) +
           " bytes)");
  }
  reader.validate();
  return reader;
}

SnapshotReader::SnapshotReader(SnapshotReader&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapping_(std::exchange(other.mapping_, nullptr)),
      owned_(std::move(other.owned_)),
      inferences_(std::exchange(other.inferences_, {})),
      links_(std::exchange(other.links_, {})),
      bgp_prefixes_(std::exchange(other.bgp_prefixes_, {})),
      fallback_prefixes_(std::exchange(other.fallback_prefixes_, {})),
      mappings_(std::exchange(other.mappings_, {})),
      crc_(other.crc_),
      version_(other.version_) {}

SnapshotReader& SnapshotReader::operator=(SnapshotReader&& other) noexcept {
  if (this != &other) {
    if (mapping_ != nullptr) ::munmap(mapping_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapping_ = std::exchange(other.mapping_, nullptr);
    owned_ = std::move(other.owned_);
    inferences_ = std::exchange(other.inferences_, {});
    links_ = std::exchange(other.links_, {});
    bgp_prefixes_ = std::exchange(other.bgp_prefixes_, {});
    fallback_prefixes_ = std::exchange(other.fallback_prefixes_, {});
    mappings_ = std::exchange(other.mappings_, {});
    crc_ = other.crc_;
    version_ = other.version_;
  }
  return *this;
}

SnapshotReader::~SnapshotReader() {
  if (mapping_ != nullptr) ::munmap(mapping_, size_);
}

void SnapshotReader::validate() {
  const auto header = read_at<SnapshotHeader>(data_, 0);
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    reject("bad magic (not a MAP-IT snapshot)");
  }
  if (header.endian != kEndianMarker) {
    reject("byte-order mismatch (artifact written on a host with different "
           "endianness)");
  }
  if (header.version != kSnapshotVersion) {
    reject("unsupported version " + std::to_string(header.version) +
           " (this reader understands version " +
           std::to_string(kSnapshotVersion) + ")");
  }
  if (header.file_size != size_) {
    reject("size mismatch: header says " + std::to_string(header.file_size) +
           " bytes, file has " + std::to_string(size_) +
           " (truncated or padded artifact)");
  }
  version_ = header.version;

  const std::uint64_t table_offset = sizeof(SnapshotHeader);
  const std::uint64_t table_size =
      std::uint64_t{header.section_count} * sizeof(SectionEntry);
  if (table_offset + table_size > size_) {
    reject("section table out of bounds (" +
           std::to_string(header.section_count) + " sections)");
  }

  // CRC first: nothing past the header is interpreted until the payload is
  // known intact, so a bit flip can never steer record parsing.
  const std::uint32_t crc =
      net::crc32(data_ + table_offset, size_ - table_offset);
  if (crc != header.payload_crc32) {
    reject("payload CRC mismatch (artifact is corrupted)");
  }
  crc_ = header.payload_crc32;

  bool seen[5] = {};
  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    const auto entry = read_at<SectionEntry>(
        data_, table_offset + std::uint64_t{i} * sizeof(SectionEntry));
    const std::string label = "section " + std::to_string(i);
    if (entry.offset % kSectionAlign != 0) {
      reject(label + ": misaligned offset " + std::to_string(entry.offset));
    }
    if (entry.offset < table_offset + table_size ||
        entry.offset > size_ || size_ - entry.offset < entry.size) {
      reject(label + ": payload out of bounds");
    }

    const auto set_span = [&]<typename Record>(std::span<const Record>& out,
                                               bool& seen_flag) {
      if (seen_flag) reject(label + ": duplicate section id");
      seen_flag = true;
      if (entry.size != entry.record_count * sizeof(Record)) {
        reject(label + ": size " + std::to_string(entry.size) +
               " does not hold " + std::to_string(entry.record_count) +
               " records of " + std::to_string(sizeof(Record)) + " bytes");
      }
      out = std::span<const Record>(
          reinterpret_cast<const Record*>(data_ + entry.offset),
          entry.record_count);
    };
    switch (static_cast<SectionId>(entry.id)) {
      case SectionId::kInferences:
        set_span(inferences_, seen[0]);
        break;
      case SectionId::kLinks:
        set_span(links_, seen[1]);
        break;
      case SectionId::kBgpPrefixes:
        set_span(bgp_prefixes_, seen[2]);
        break;
      case SectionId::kFallbackPrefixes:
        set_span(fallback_prefixes_, seen[3]);
        break;
      case SectionId::kMappings:
        set_span(mappings_, seen[4]);
        break;
      default:
        reject(label + ": unknown section id " + std::to_string(entry.id));
    }
  }
  for (bool s : seen) {
    if (!s) reject("missing section (artifact incomplete)");
  }
}

}  // namespace mapit::store
