#include "query/hub.h"

#include <fcntl.h>

#include <utility>

#include "store/format.h"

namespace mapit::query {

SnapshotHub::SnapshotHub(std::string path, fault::Io& io)
    : path_(std::move(path)), io_(&io) {
  // Initial load throws on failure: a server must not come up answering
  // from nothing. The identity is taken before the open — if the file is
  // republished between the stat and the open we record the older identity
  // and the first refresh() simply swaps again, which is benign.
  FileIdentity identity;
  (void)stat_path(&identity);
  failed_.store(0, std::memory_order_relaxed);  // probe failures don't count
  current_ = std::make_shared<LoadedSnapshot>(
      store::SnapshotReader::open(path_, *io_), /*generation=*/1);
  identity_ = identity;
}

std::shared_ptr<const LoadedSnapshot> SnapshotHub::current() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

bool SnapshotHub::stat_path(FileIdentity* out) {
  const int fd = io_->open(path_.c_str(), O_RDONLY | O_CLOEXEC, 0);
  if (fd < 0) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  struct ::stat st{};
  if (io_->fstat(fd, &st) != 0) {
    (void)io_->close(fd);
    failed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  (void)io_->close(fd);
  out->dev = st.st_dev;
  out->ino = st.st_ino;
  out->size = st.st_size;
  out->mtim = st.st_mtim;
  return true;
}

std::string SnapshotHub::last_error() const {
  const std::lock_guard<std::mutex> lock(error_mutex_);
  return last_error_;
}

bool SnapshotHub::refresh() {
  const std::lock_guard<std::mutex> lock(refresh_mutex_);
  FileIdentity identity;
  if (!stat_path(&identity)) {
    const std::lock_guard<std::mutex> error_lock(error_mutex_);
    last_error_ = "cannot stat snapshot " + path_;
    return false;
  }
  if (identity == identity_) return false;
  // The file changed under the path (the publisher renames a complete new
  // file over it). Open + fully validate (mmap, whole-payload CRC, query
  // engine) before anything is swapped, outside mutex_ so readers keep
  // pinning the previous generation meanwhile; a file that fails
  // validation leaves that generation serving.
  try {
    std::shared_ptr<const LoadedSnapshot> next =
        std::make_shared<const LoadedSnapshot>(
            store::SnapshotReader::open(path_, *io_), next_generation_);
    {
      const std::lock_guard<std::mutex> swap_lock(mutex_);
      current_.swap(next);
    }
    // `next` now holds the previous generation. It is dropped at the end of
    // this block, outside mutex_: when it was the last pin, its munmap
    // does not delay a reader either.
    identity_ = identity;
    ++next_generation_;
    swaps_.fetch_add(1, std::memory_order_relaxed);
    return true;
  } catch (const Error& error) {
    // SnapshotError (validation) or Error (open) alike: count, record the
    // message for HEALTH's last_swap_error=, keep serving.
    failed_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> error_lock(error_mutex_);
    last_error_ = error.what();
    return false;
  }
}

}  // namespace mapit::query
