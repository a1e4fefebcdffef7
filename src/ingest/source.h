// The delta file source for streaming ingestion: FileTailer tail-follows
// an append-only delta corpus file and hands the ingest loop each new
// line tagged with its byte offset. (Remote producers use the MDP1
// transport of transport.h instead.)
//
// Only complete ('\n'-terminated) lines are emitted; a partial tail line
// waits for the rest of its bytes. The tailer keeps its fd open across
// polls, so appends by a concurrent writer are picked up by plain read()
// calls — no seeking, which keeps the whole surface inside fault::Io. A
// file that does not exist yet is simply "no input"; the tailer retries
// the open on every poll. The input is append-only by contract:
// rewriting, truncating, or rotating the followed file is DETECTED, not
// survived — at every EOF the tailer compares the held fd's identity
// (dev/inode) with whatever the path names now and the file size with
// the bytes already consumed, and throws SourceRotatedError (a loud,
// distinct failure) rather than silently re-reading garbage from a stale
// offset.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/io.h"
#include "net/error.h"

namespace mapit::ingest {

/// The followed delta file was rotated, replaced, or truncated under the
/// tailer. Deliberately its own type: the degraded-mode ingest loop retries
/// plain I/O errors but must NOT retry this — the persisted offsets no
/// longer describe the file, so continuing would fold garbage. The CLI maps
/// it to exit 3 like other load errors, with a message naming the cause.
class SourceRotatedError : public Error {
 public:
  using Error::Error;
};

/// One delta corpus line plus where it starts in the followed file.
struct SourceLine {
  std::uint64_t offset = 0;  ///< byte offset of the line start
  std::string line;          ///< without the trailing newline
};

class FileTailer {
 public:
  /// Follows `path` starting at byte `start_offset` (a resume skips the
  /// prefix already replayed from the journal by reading and discarding
  /// it — once, at the first successful open).
  FileTailer(std::string path, std::uint64_t start_offset,
             fault::Io& io = fault::system_io());
  FileTailer(const FileTailer&) = delete;
  FileTailer& operator=(const FileTailer&) = delete;
  ~FileTailer();

  /// Appends every complete line that arrived since the last poll to
  /// `out`. Returns the number of lines appended. A missing file or an
  /// unreadable prefix yields 0 (and the next poll retries). Throws
  /// SourceRotatedError when the followed file was rotated/truncated.
  std::size_t poll(std::vector<SourceLine>& out);

  /// Byte offset the next emitted line will start at.
  [[nodiscard]] std::uint64_t offset() const { return offset_; }

 private:
  /// Ensures fd_ is open and positioned past start_offset_. False when
  /// the file cannot be opened (yet) or the skip failed.
  bool ensure_open();

  /// Called at EOF: throws SourceRotatedError when the path no longer
  /// names the file we hold (rotation) or the file shrank below the bytes
  /// already consumed (truncation). Transient stat/open failures are
  /// ignored — the next poll rechecks.
  void check_rotation();

  std::string path_;
  std::uint64_t start_offset_ = 0;  ///< bytes to discard at first open
  std::uint64_t offset_ = 0;        ///< file position of partial_'s start
  std::string partial_;             ///< bytes of an incomplete tail line
  int fd_ = -1;
  ::dev_t dev_ = 0;  ///< identity of the file fd_ holds (rotation check)
  ::ino_t ino_ = 0;
  bool have_identity_ = false;
  fault::Io* io_;
};

}  // namespace mapit::ingest
