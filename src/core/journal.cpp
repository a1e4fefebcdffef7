#include "core/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/wire.h"
#include "fault/atomic_file.h"
#include "net/crc32.h"
#include "net/error.h"

namespace mapit::core {

namespace {

using net::crc32;
using wire::append_u16;
using wire::append_u32;
using wire::append_u64;
using wire::Cursor;

constexpr char kMagic[8] = {'M', 'A', 'P', 'I', 'T', 'J', 'N', 'L'};
constexpr std::uint32_t kEndianMarker = 0x0A0B0C0Du;
/// Bytes of the header covered by its CRC: everything after the magic up
/// to the CRC field itself.
constexpr std::size_t kHeaderCrcStart = 8;
constexpr std::size_t kHeaderCrcEnd = 48;

[[nodiscard]] std::string read_file_bytes(const std::string& path,
                                          fault::Io& io) {
  const int fd = io.open(path.c_str(), O_RDONLY | O_CLOEXEC, 0);
  if (fd < 0) {
    throw JournalError("cannot open journal " + path + ": " +
                       std::strerror(errno));
  }
  std::string bytes;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t got = io.read(fd, buffer, sizeof(buffer));
    if (got < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      (void)io.close(fd);
      throw JournalError("read failed on journal " + path + ": " +
                         std::strerror(saved));
    }
    if (got == 0) break;
    bytes.append(buffer, static_cast<std::size_t>(got));
  }
  (void)io.close(fd);
  return bytes;
}

[[nodiscard]] JournalRecord parse_record_payload(std::uint8_t type,
                                                 std::string_view payload,
                                                 const std::string& context) {
  Cursor cursor(payload, "journal record payload");
  JournalRecord out;
  switch (static_cast<JournalRecord::Type>(type)) {
    case JournalRecord::Type::kTrace:
      out.type = JournalRecord::Type::kTrace;
      out.source_offset = cursor.read_u64();
      out.line = std::string(cursor.rest());
      return out;
    case JournalRecord::Type::kCommit:
      out.type = JournalRecord::Type::kCommit;
      out.batch_seq = cursor.read_u64();
      out.traces_total = cursor.read_u64();
      out.snapshot_crc = cursor.read_u32();
      if (cursor.read_u32() != 0) {
        throw JournalError("journal commit record reserved bytes are "
                           "nonzero: " + context);
      }
      if (!cursor.exhausted()) {
        throw JournalError("journal commit record has trailing bytes: " +
                           context);
      }
      return out;
    case JournalRecord::Type::kRemoteBatch: {
      out.type = JournalRecord::Type::kRemoteBatch;
      out.batch_seq = cursor.read_u64();
      out.source_offset = cursor.read_u64();
      const std::size_t name_len = cursor.read_u16();
      if (name_len == 0 || name_len > kMaxJournalSessionName) {
        throw JournalError("journal remote-batch session name length " +
                           std::to_string(name_len) + " out of range: " +
                           context);
      }
      out.session = std::string(cursor.read_bytes(name_len));
      const std::uint32_t count = cursor.read_u32();
      out.lines.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t len = cursor.read_u32();
        out.lines.emplace_back(cursor.read_bytes(len));
      }
      if (!cursor.exhausted()) {
        throw JournalError("journal remote-batch record has trailing "
                           "bytes: " + context);
      }
      return out;
    }
  }
  throw JournalError("journal record has unknown type " +
                     std::to_string(type) + ": " + context);
}

/// Verifies the journal's identity block against the current invocation's.
/// Mirrors verify_checkpoint_meta but names the journal in its messages.
void verify_journal_meta(const CheckpointMeta& expected,
                         const CheckpointMeta& recorded,
                         const std::string& path) {
  if (recorded.config_hash != expected.config_hash) {
    throw JournalError("journal " + path +
                       " was written with different engine options "
                       "(config hash mismatch); rerun with the original "
                       "options or start fresh");
  }
  if (recorded.corpus_fingerprint != expected.corpus_fingerprint) {
    throw JournalError("journal " + path +
                       " was written against a different base corpus "
                       "(fingerprint mismatch)");
  }
  if (recorded.rib_fingerprint != expected.rib_fingerprint) {
    throw JournalError("journal " + path +
                       " was written against a different RIB "
                       "(fingerprint mismatch)");
  }
  if (recorded.datasets_fingerprint != expected.datasets_fingerprint) {
    throw JournalError("journal " + path +
                       " was written against different AS datasets "
                       "(fingerprint mismatch)");
  }
}

/// Appends one record frame to `out`: `fill` appends the payload, then the
/// frame's payload size and CRC are written in front of it.
template <typename Fill>
void append_frame(std::string& out, JournalRecord::Type type, Fill&& fill) {
  const std::size_t start = out.size();
  out.append(kJournalFrameSize, '\0');  // type set below; reserved stay zero
  fill(out);
  const std::string_view payload =
      std::string_view(out).substr(start + kJournalFrameSize);
  const auto size = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload);
  std::memcpy(out.data() + start, &size, sizeof(size));
  std::memcpy(out.data() + start + sizeof(size), &crc, sizeof(crc));
  out[start + 2 * sizeof(std::uint32_t)] =
      static_cast<char>(static_cast<std::uint8_t>(type));
}

void append_trace_payload(std::string& out, std::uint64_t source_offset,
                          std::string_view line) {
  append_u64(out, source_offset);
  out.append(line);
}

void write_all(int fd, std::string_view bytes, fault::Io& io,
               const std::string& path) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t got =
        io.write(fd, bytes.data() + written, bytes.size() - written);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw JournalError("append failed on journal " + path + ": " +
                         std::strerror(errno));
    }
    written += static_cast<std::size_t>(got);
  }
}

}  // namespace

JournalRecord JournalRecord::trace(std::uint64_t source_offset,
                                   std::string line) {
  JournalRecord out;
  out.type = Type::kTrace;
  out.source_offset = source_offset;
  out.line = std::move(line);
  return out;
}

JournalRecord JournalRecord::commit(std::uint64_t batch_seq,
                                    std::uint64_t traces_total,
                                    std::uint32_t snapshot_crc) {
  JournalRecord out;
  out.type = Type::kCommit;
  out.batch_seq = batch_seq;
  out.traces_total = traces_total;
  out.snapshot_crc = snapshot_crc;
  return out;
}

JournalRecord JournalRecord::remote_batch(std::string session,
                                          std::uint64_t seq,
                                          std::uint64_t end_offset,
                                          std::vector<std::string> lines) {
  MAPIT_ENSURE(!session.empty() && session.size() <= kMaxJournalSessionName,
               "remote-batch session name length out of range");
  JournalRecord out;
  out.type = Type::kRemoteBatch;
  out.batch_seq = seq;
  out.source_offset = end_offset;
  out.session = std::move(session);
  out.lines = std::move(lines);
  return out;
}

std::string serialize_journal_header(const CheckpointMeta& meta) {
  std::string out;
  out.reserve(kJournalHeaderSize);
  out.append(kMagic, sizeof(kMagic));
  append_u32(out, kEndianMarker);
  append_u32(out, kJournalVersion);
  append_u64(out, meta.config_hash);
  append_u64(out, meta.corpus_fingerprint);
  append_u64(out, meta.rib_fingerprint);
  append_u64(out, meta.datasets_fingerprint);
  append_u32(out, crc32(std::string_view(out).substr(
                      kHeaderCrcStart, kHeaderCrcEnd - kHeaderCrcStart)));
  append_u32(out, 0);  // reserved
  return out;
}

std::string serialize_journal_record(const JournalRecord& record) {
  std::string out;
  append_frame(out, record.type, [&](std::string& payload) {
    switch (record.type) {
      case JournalRecord::Type::kTrace:
        append_trace_payload(payload, record.source_offset, record.line);
        break;
      case JournalRecord::Type::kCommit:
        append_u64(payload, record.batch_seq);
        append_u64(payload, record.traces_total);
        append_u32(payload, record.snapshot_crc);
        append_u32(payload, 0);  // reserved
        break;
      case JournalRecord::Type::kRemoteBatch:
        append_u64(payload, record.batch_seq);
        append_u64(payload, record.source_offset);
        append_u16(payload,
                   static_cast<std::uint16_t>(record.session.size()));
        payload.append(record.session);
        append_u32(payload, static_cast<std::uint32_t>(record.lines.size()));
        for (const std::string& line : record.lines) {
          append_u32(payload, static_cast<std::uint32_t>(line.size()));
          payload.append(line);
        }
        break;
    }
  });
  return out;
}

JournalContents read_journal_bytes(std::string_view bytes,
                                   const std::string& context) {
  if (bytes.size() < kJournalHeaderSize) {
    throw JournalError("journal file too small: " + context);
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw JournalError("bad journal magic: " + context);
  }
  Cursor header(bytes.substr(sizeof(kMagic),
                             kJournalHeaderSize - sizeof(kMagic)),
                "journal header");
  if (header.read_u32() != kEndianMarker) {
    throw JournalError("journal written with foreign endianness: " + context);
  }
  const std::uint32_t version = header.read_u32();
  if (version < kMinJournalVersion || version > kJournalVersion) {
    throw JournalError("unsupported journal version " +
                       std::to_string(version) + ": " + context);
  }
  JournalContents out;
  out.meta.config_hash = header.read_u64();
  out.meta.corpus_fingerprint = header.read_u64();
  out.meta.rib_fingerprint = header.read_u64();
  out.meta.datasets_fingerprint = header.read_u64();
  const std::uint32_t expected_header_crc = header.read_u32();
  if (header.read_u32() != 0) {
    throw JournalError("journal reserved header bytes are nonzero: " +
                       context);
  }
  const std::uint32_t actual_header_crc = crc32(
      bytes.substr(kHeaderCrcStart, kHeaderCrcEnd - kHeaderCrcStart));
  if (actual_header_crc != expected_header_crc) {
    throw JournalError("journal header CRC mismatch: " + context);
  }

  // Record frames. An incomplete frame can only be the tail (appends never
  // rewrite earlier bytes), so "not enough bytes left" is a torn tail, not
  // corruption — but a *complete* frame with a bad CRC, bad type, or
  // nonzero reserved bytes is corruption and rejected.
  std::size_t offset = kJournalHeaderSize;
  while (offset < bytes.size()) {
    const std::size_t remaining = bytes.size() - offset;
    if (remaining < kJournalFrameSize) {
      out.torn_tail = true;
      break;
    }
    Cursor frame(bytes.substr(offset, kJournalFrameSize), "journal frame");
    const std::uint32_t payload_size = frame.read_u32();
    const std::uint32_t expected_crc = frame.read_u32();
    const std::uint8_t type = frame.read_u8();
    const bool reserved_zero = frame.read_u8() == 0 &&
                               frame.read_u8() == 0 && frame.read_u8() == 0;
    if (payload_size > kMaxJournalPayload) {
      throw JournalError("journal record payload size " +
                         std::to_string(payload_size) +
                         " exceeds sanity cap: " + context);
    }
    if (remaining - kJournalFrameSize < payload_size) {
      out.torn_tail = true;
      break;
    }
    if (!reserved_zero) {
      throw JournalError("journal record reserved bytes are nonzero: " +
                         context);
    }
    const std::string_view payload =
        bytes.substr(offset + kJournalFrameSize, payload_size);
    if (crc32(payload) != expected_crc) {
      throw JournalError("journal record CRC mismatch: " + context);
    }
    out.records.push_back(parse_record_payload(type, payload, context));
    offset += kJournalFrameSize + payload_size;
  }
  out.durable_size = offset;
  return out;
}

JournalContents read_journal(const std::string& path, fault::Io& io) {
  return read_journal_bytes(read_file_bytes(path, io), path);
}

JournalWriter JournalWriter::open(const std::string& path,
                                  const CheckpointMeta& meta,
                                  JournalContents* replayed, fault::Io& io) {
  // Probe for an existing journal; create one atomically when absent, so
  // the path never holds a partial header (a crash during creation leaves
  // either nothing or a complete header — pinned by the crash matrix).
  {
    const int probe = io.open(path.c_str(), O_RDONLY | O_CLOEXEC, 0);
    if (probe < 0) {
      if (errno != ENOENT) {
        throw JournalError("cannot open journal " + path + ": " +
                           std::strerror(errno));
      }
      fault::write_file_atomic(path, serialize_journal_header(meta), io);
    } else {
      (void)io.close(probe);
    }
  }

  JournalContents contents = read_journal(path, io);
  verify_journal_meta(meta, contents.meta, path);

  // O_APPEND: every write lands at the current end of file, so truncating
  // a torn tail below needs no seek (the Io surface has none).
  const int fd = io.open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0);
  if (fd < 0) {
    throw JournalError("cannot open journal " + path + " for append: " +
                       std::strerror(errno));
  }
  if (contents.torn_tail) {
    if (io.ftruncate(fd, static_cast<::off_t>(contents.durable_size)) != 0) {
      const int saved = errno;
      (void)io.close(fd);
      throw JournalError("cannot truncate torn tail of journal " + path +
                         ": " + std::strerror(saved));
    }
    contents.torn_tail = false;
  }
  const std::uint64_t size = contents.durable_size;
  if (replayed != nullptr) *replayed = std::move(contents);
  return JournalWriter(fd, size, path, io);
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      size_(other.size_),
      path_(std::move(other.path_)),
      io_(other.io_) {}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) (void)io_->close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    size_ = other.size_;
    path_ = std::move(other.path_);
    io_ = other.io_;
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) (void)io_->close(fd_);
}

void JournalWriter::append(const JournalRecord& record) {
  const std::string bytes = serialize_journal_record(record);
  write_all(fd_, bytes, *io_, path_);
  size_ += bytes.size();
}

void JournalWriter::append_traces(std::span<const TraceLine> lines) {
  std::string bytes;
  for (const TraceLine& trace : lines) {
    append_frame(bytes, JournalRecord::Type::kTrace, [&](std::string& out) {
      append_trace_payload(out, trace.source_offset, trace.line);
    });
  }
  write_all(fd_, bytes, *io_, path_);
  size_ += bytes.size();
}

void JournalWriter::sync() {
  if (io_->fsync(fd_) != 0) {
    throw JournalError("fsync failed on journal " + path_ + ": " +
                       std::strerror(errno));
  }
}

void JournalWriter::rollback_to(std::uint64_t size) {
  MAPIT_ENSURE(size >= kJournalHeaderSize && size <= size_,
               "journal rollback target out of range");
  if (io_->ftruncate(fd_, static_cast<::off_t>(size)) != 0) {
    throw JournalError("cannot roll back journal " + path_ + ": " +
                       std::strerror(errno));
  }
  size_ = size;
}

void JournalWriter::close() {
  if (fd_ < 0) return;
  if (io_->close(fd_) != 0) {
    fd_ = -1;
    throw JournalError("close failed on journal " + path_ + ": " +
                       std::strerror(errno));
  }
  fd_ = -1;
}

}  // namespace mapit::core
