// Live snapshot hot-swap for the query servers.
//
// `mapit ingest` republishes the snapshot file by atomic rename, so the
// path always names either the old or the new complete file — never a torn
// one. A SnapshotHub watches that path: refresh() cheaply stats it, and
// when the identity (inode/size/mtime) changed, opens + fully validates
// the new file and swaps it in as a new *generation*.
//
// Readers never block on a refresh and never see a mix: a server pins the
// current generation once per read batch (one shared_ptr copy under a
// mutex) and answers the whole batch from it, so every answer in a batch
// comes from exactly one generation (pinned by the TSan hot-swap test).
// refresh() opens and validates the new file before it takes that mutex,
// and holds it only for the pointer swap. The old generation's mmap is
// retired only when the last in-flight batch drops its pin — connections
// survive a swap untouched.
//
// A refresh that fails validation (half-copied file, version skew, CRC
// damage) is counted and ignored: the hub keeps serving the previous
// generation, because a bad publish must degrade to staleness, not to an
// outage.
#pragma once

#include <sys/stat.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "fault/io.h"
#include "query/query_engine.h"
#include "store/reader.h"

namespace mapit::query {

/// One loaded snapshot generation: the mmap'd reader, the engine answering
/// over it, and the generation counter HEALTH reports. Heap-held and
/// immovable — `engine` holds a reference to `reader`, which member order
/// keeps valid for the object's whole life.
struct LoadedSnapshot {
  store::SnapshotReader reader;
  QueryEngine engine;
  std::uint64_t generation;

  LoadedSnapshot(store::SnapshotReader reader_in, std::uint64_t generation_in)
      : reader(std::move(reader_in)), engine(reader), generation(generation_in) {}

  LoadedSnapshot(const LoadedSnapshot&) = delete;
  LoadedSnapshot& operator=(const LoadedSnapshot&) = delete;
};

class SnapshotHub {
 public:
  /// Opens and validates the snapshot at `path` as generation 1. Throws
  /// store::SnapshotError when the initial load fails — a server must not
  /// come up empty.
  explicit SnapshotHub(std::string path, fault::Io& io = fault::system_io());

  /// The generation currently served. Callers hold the returned pin for
  /// exactly one read batch: long enough for batch-internal consistency,
  /// short enough that an old generation retires promptly after a swap.
  [[nodiscard]] std::shared_ptr<const LoadedSnapshot> current() const;

  /// Checks the path for a republished snapshot and swaps it in. Returns
  /// true when a new generation went live. Cheap when nothing changed (one
  /// open + fstat); safe to call from a poll thread while servers answer.
  bool refresh();

  /// Successful swaps so far (the initial load is not a swap).
  [[nodiscard]] std::uint64_t swap_count() const {
    return swaps_.load(std::memory_order_relaxed);
  }

  /// Refreshes that found a changed file but failed to validate it.
  [[nodiscard]] std::uint64_t failed_refreshes() const {
    return failed_.load(std::memory_order_relaxed);
  }

  /// The most recent refresh failure message, or "" when every refresh so
  /// far succeeded. Never cleared by a later success: HEALTH consumers see
  /// `swaps=` advance past the error and know the hub recovered, while the
  /// message itself distinguishes "never swapped" from "swap failing".
  [[nodiscard]] std::string last_error() const;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct FileIdentity {
    ::dev_t dev = 0;
    ::ino_t ino = 0;
    ::off_t size = 0;
    ::timespec mtim = {0, 0};

    friend bool operator==(const FileIdentity& a, const FileIdentity& b) {
      return a.dev == b.dev && a.ino == b.ino && a.size == b.size &&
             a.mtim.tv_sec == b.mtim.tv_sec &&
             a.mtim.tv_nsec == b.mtim.tv_nsec;
    }
  };

  /// stats `path_`; false (and counts a failure) when it cannot.
  bool stat_path(FileIdentity* out);

  std::string path_;
  fault::Io* io_;

  /// Serializes refresh() calls; guards identity_ and next_generation_,
  /// so a generation number and the file identity always land together.
  std::mutex refresh_mutex_;
  FileIdentity identity_;
  std::uint64_t next_generation_ = 2;

  mutable std::mutex mutex_;  ///< guards current_ only: readers take it
  std::shared_ptr<const LoadedSnapshot> current_;

  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> failed_{0};

  mutable std::mutex error_mutex_;  ///< guards last_error_
  std::string last_error_;
};

}  // namespace mapit::query
