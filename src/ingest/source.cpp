#include "ingest/source.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

namespace mapit::ingest {

FileTailer::FileTailer(std::string path, std::uint64_t start_offset,
                       fault::Io& io)
    : path_(std::move(path)),
      start_offset_(start_offset),
      offset_(start_offset),
      io_(&io) {}

FileTailer::~FileTailer() {
  if (fd_ >= 0) (void)io_->close(fd_);
}

bool FileTailer::ensure_open() {
  if (fd_ >= 0) return true;
  const int fd = io_->open(path_.c_str(), O_RDONLY | O_CLOEXEC, 0);
  if (fd < 0) return false;  // not created yet: poll again later
  struct ::stat st{};
  if (io_->fstat(fd, &st) == 0) {
    dev_ = st.st_dev;
    ino_ = st.st_ino;
    have_identity_ = true;
  } else {
    have_identity_ = false;  // rotation check degrades to size-only
  }
  // Skip the prefix already replayed from the journal. Sequential reads
  // instead of a seek keep the tailer inside the fault::Io surface; this
  // runs once per (re)open, not per poll.
  std::uint64_t remaining = start_offset_;
  char buffer[1 << 16];
  while (remaining > 0) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, sizeof(buffer)));
    const ssize_t n = io_->read(fd, buffer, want);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // The file is (still) shorter than the replayed prefix — the source
      // has not caught up to what the journal preserved. Retry later.
      (void)io_->close(fd);
      return false;
    }
    remaining -= static_cast<std::uint64_t>(n);
  }
  fd_ = fd;
  return true;
}

std::size_t FileTailer::poll(std::vector<SourceLine>& out) {
  if (!ensure_open()) return 0;
  std::size_t emitted = 0;
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = io_->read(fd_, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      // EOF for now; appended bytes show up next poll. This is also the
      // only moment rotation is observable: mid-file we are still reading
      // bytes the held fd preserves even if the path moved on.
      check_rotation();
      break;
    }
    if (n < 0) break;  // transient read error: retry next poll
    partial_.append(buffer, static_cast<std::size_t>(n));
    std::size_t start = 0;
    while (true) {
      const std::size_t newline = partial_.find('\n', start);
      if (newline == std::string::npos) break;
      std::string line = partial_.substr(start, newline - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      out.push_back(SourceLine{offset_ + start, std::move(line)});
      ++emitted;
      start = newline + 1;
    }
    partial_.erase(0, start);
    offset_ += start;
  }
  return emitted;
}

void FileTailer::check_rotation() {
  // Truncation: the file now holds fewer bytes than we already consumed.
  // The persisted offsets no longer describe this file — loud failure.
  struct ::stat held{};
  if (io_->fstat(fd_, &held) != 0) return;  // transient: recheck next poll
  const std::uint64_t consumed = offset_ + partial_.size();
  if (static_cast<std::uint64_t>(held.st_size) < consumed) {
    throw SourceRotatedError(
        "delta source " + path_ + " was truncated: file holds " +
        std::to_string(held.st_size) + " bytes but offset " +
        std::to_string(consumed) + " was already consumed (the followed "
        "file is append-only by contract)");
  }
  // Rotation: the path no longer names the file our fd holds. ENOENT is
  // conclusive (logrotate-style delete); any other open failure is treated
  // as transient and rechecked at the next EOF.
  const int probe = io_->open(path_.c_str(), O_RDONLY | O_CLOEXEC, 0);
  if (probe < 0) {
    if (errno == ENOENT) {
      throw SourceRotatedError("delta source " + path_ +
                               " was rotated: the followed file was deleted");
    }
    return;
  }
  struct ::stat named{};
  const bool probed = io_->fstat(probe, &named) == 0;
  (void)io_->close(probe);
  if (!probed || !have_identity_) return;
  if (named.st_dev != dev_ || named.st_ino != ino_) {
    throw SourceRotatedError(
        "delta source " + path_ +
        " was rotated: the path names a different file now (the tailer "
        "would re-read from a stale offset)");
  }
}

}  // namespace mapit::ingest
