// Append-only delta journal for streaming ingestion: the durable record of
// every trace line accepted since the base corpus was loaded.
//
// The format extends the PR 5 checkpoint family (same endianness marker,
// same CRC-32, same CheckpointMeta identity block) rather than inventing a
// new one. A journal file is a fixed header followed by CRC-framed records:
//
//   offset  size  field
//   0       8     magic "MAPITJNL"
//   8       4     endianness marker 0x0A0B0C0D
//   12      4     format version (kJournalVersion)
//   16      32    CheckpointMeta (config hash, corpus / RIB / datasets
//                 fingerprints) — the base run this journal extends
//   48      4     CRC-32 (IEEE) of bytes [8, 48)
//   52      4     reserved (zero)
//   56      ...   records
//
//   record := u32 payload size | u32 CRC-32 of payload | u8 type
//             | u8[3] reserved (zero) | payload
//   trace payload  (type 1) := u64 source offset | raw trace line bytes
//   commit payload (type 2) := u64 batch sequence | u64 traces folded total
//                              | u32 published snapshot CRC | u32 reserved
//   remote payload (type 3) := u64 session sequence | u64 sender end offset
//                              | u16 session name length | session name
//                              | u32 line count | (u32 length | line bytes)*
//
// Format version 2 adds the type-3 remote-batch record (the MDP1 transport's
// exactly-once unit: one accepted batch from one sender session, journaled
// atomically with its (session, seq) watermark so a torn tail can never
// leave traces durable without the watermark that dedupes their resend).
// Readers accept versions 1 and 2; writers emit version 2.
//
// Durability contract: the header is created with fault::write_file_atomic
// (the path holds either nothing or a complete header); records are
// appended with O_APPEND and made durable by an explicit sync() at each
// batch watermark. A crash can therefore only truncate the tail record —
// it can never corrupt bytes that were already written. Readers exploit
// exactly that: an incomplete record at end-of-file is a *torn tail*
// (silently truncated on the next open, with the tailer re-reading the
// lost lines from their recorded source offsets), while a complete record
// that fails its CRC, names an unknown type, or carries nonzero reserved
// bytes is real corruption and rejected loudly (JournalError, CLI exit
// code 4). The crash matrix in tests/ingest/ pins this distinction at
// every syscall via fault::FaultPlan.
//
// Only lines that parsed successfully are journaled, so "base corpus +
// journaled lines" is exactly the corpus a cold batch run would load —
// the byte-identical equivalence gate depends on this.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.h"
#include "fault/io.h"

namespace mapit::core {

/// A journal file is unusable (corrupt, truncated header, wrong version)
/// or belongs to a different base run. Subclasses CheckpointError so the
/// CLI's exit-code mapping (4) covers both artifact families.
class JournalError : public CheckpointError {
 public:
  using CheckpointError::CheckpointError;
};

inline constexpr std::uint32_t kJournalVersion = 2;
/// Oldest header version read_journal_bytes still accepts. Version 1
/// journals simply predate the remote-batch record type; every v1 byte
/// sequence parses identically under v2 rules.
inline constexpr std::uint32_t kMinJournalVersion = 1;
inline constexpr std::size_t kJournalHeaderSize = 56;
inline constexpr std::size_t kJournalFrameSize = 12;
/// Sanity cap on a single record payload. Trace lines are bounded far
/// below this; a larger size field means corruption, not data.
inline constexpr std::uint32_t kMaxJournalPayload = 1u << 24;
/// source_offset value for delta lines with no file position. Today's
/// sources always have one; journals from the retired plaintext socket
/// intake hold such lines, and replay still accepts them.
inline constexpr std::uint64_t kNoSourceOffset = ~0ull;
/// Sanity cap on a remote-batch session name (also enforced by the MDP1
/// handshake, so a journaled name can always round-trip the wire).
inline constexpr std::size_t kMaxJournalSessionName = 256;

/// One journal record. Which fields are meaningful depends on `type`;
/// the factory functions below construct well-formed instances.
struct JournalRecord {
  enum class Type : std::uint8_t { kTrace = 1, kCommit = 2, kRemoteBatch = 3 };

  Type type = Type::kTrace;
  /// kTrace: byte offset of the line in its source file, so a tailer
  /// resuming after a torn tail knows where to re-read from; lines with no
  /// file position record kNoSourceOffset. The raw accepted line follows.
  /// kRemoteBatch: the sender's source-file offset after the last line of
  /// the batch — replayed to a reconnecting sender so it resumes reading
  /// exactly where the durable prefix ends.
  std::uint64_t source_offset = 0;
  std::string line;
  /// kCommit: the batch watermark bookkeeping — sequence number, total
  /// traces folded so far, and the CRC of the snapshot published for it.
  /// kRemoteBatch: batch_seq is the per-session monotonic sequence number.
  std::uint64_t batch_seq = 0;
  std::uint64_t traces_total = 0;
  std::uint32_t snapshot_crc = 0;
  /// kRemoteBatch: sender session name plus the accepted trace lines of
  /// the batch, journaled as one atomic record (all-or-nothing under a
  /// torn tail, which is what makes ACK-after-fsync exactly-once).
  std::string session;
  std::vector<std::string> lines;

  [[nodiscard]] static JournalRecord trace(std::uint64_t source_offset,
                                           std::string line);
  [[nodiscard]] static JournalRecord commit(std::uint64_t batch_seq,
                                            std::uint64_t traces_total,
                                            std::uint32_t snapshot_crc);
  [[nodiscard]] static JournalRecord remote_batch(
      std::string session, std::uint64_t seq, std::uint64_t end_offset,
      std::vector<std::string> lines);

  friend bool operator==(const JournalRecord&,
                         const JournalRecord&) = default;
};

/// Result of replaying a journal: the base-run identity, every complete
/// record in append order, and where the durable prefix ends.
struct JournalContents {
  CheckpointMeta meta;
  std::vector<JournalRecord> records;
  /// Size in bytes of the valid prefix (header + complete records).
  std::uint64_t durable_size = kJournalHeaderSize;
  /// True when bytes past durable_size formed an incomplete tail record
  /// (crash mid-append). JournalWriter::open truncates them.
  bool torn_tail = false;
};

[[nodiscard]] std::string serialize_journal_header(const CheckpointMeta& meta);
[[nodiscard]] std::string serialize_journal_record(const JournalRecord& record);

/// Fully validates an in-memory journal image: header, endianness, version,
/// header CRC, then every record frame. Incomplete trailing bytes are
/// reported as a torn tail; everything else wrong throws JournalError
/// naming `context`. This is the whole validation path minus file I/O —
/// the fuzz harness drives it directly.
[[nodiscard]] JournalContents read_journal_bytes(
    std::string_view bytes, const std::string& context = "journal");

/// Reads and validates a journal file. Throws JournalError when the file
/// is missing or unreadable (torn tails do NOT throw — see above).
[[nodiscard]] JournalContents read_journal(const std::string& path,
                                           fault::Io& io = fault::system_io());

/// Appends records to a journal, creating it (header only) when absent.
/// All I/O goes through the injected fault::Io; append() buffers nothing —
/// every record is written through immediately, and sync() is the
/// durability point callers invoke at each batch watermark.
class JournalWriter {
 public:
  /// One accepted trace line for append_traces: what JournalRecord::trace
  /// holds, without copying the line.
  struct TraceLine {
    std::uint64_t source_offset = 0;
    std::string_view line;
  };

  /// Opens `path`, creating it with `meta` when absent. An existing file
  /// is replayed (into *replayed when non-null), its identity block is
  /// verified against `meta` (mismatch: JournalError), and a torn tail is
  /// truncated before the writer is positioned at the end.
  [[nodiscard]] static JournalWriter open(const std::string& path,
                                          const CheckpointMeta& meta,
                                          JournalContents* replayed = nullptr,
                                          fault::Io& io = fault::system_io());

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Writes one record through to the kernel (not yet durable).
  void append(const JournalRecord& record);

  /// Writes one trace record per line, in order, in a single write: the
  /// same bytes as append(JournalRecord::trace(...)) line by line. Like
  /// append(), a failure can leave part of the batch on disk.
  void append_traces(std::span<const TraceLine> lines);

  /// fsyncs everything appended so far — the batch commit point.
  void sync();

  /// Truncates the file back to `size` bytes. The degraded-mode retry path
  /// uses this to discard a batch whose append failed partway (a failed
  /// write can leave a partial frame on disk that size() does not account
  /// for) before re-appending the whole batch. `size` must not exceed
  /// size(). O_APPEND makes the next append land at the new end.
  void rollback_to(std::uint64_t size);

  /// File size after the last append (header + all records).
  [[nodiscard]] std::uint64_t size() const { return size_; }

  void close();

 private:
  JournalWriter(int fd, std::uint64_t size, std::string path, fault::Io& io)
      : fd_(fd), size_(size), path_(std::move(path)), io_(&io) {}

  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::string path_;
  fault::Io* io_ = nullptr;
};

}  // namespace mapit::core
