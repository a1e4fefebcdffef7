// Durable engine checkpoints: versioned, CRC-checked wrappers around
// Engine::save_state(), written crash-safely at run boundaries.
//
// File layout (all integers host-endian; the endianness marker rejects a
// file written on a machine with different byte order):
//
//   offset  size  field
//   0       8     magic "MAPITCKP"
//   8       4     endianness marker 0x0A0B0C0D
//   12      4     format version (kCheckpointVersion)
//   16      8     payload size in bytes
//   24      4     CRC-32 (IEEE) of the payload
//   28      4     reserved (zero)
//   32      ...   payload
//
//   payload := meta (4 x u64: config hash, corpus / RIB / datasets
//              fingerprints) | u8 boundary | u32 iterations
//              | u64 state size | Engine::save_state() blob
//
// Checkpoints are written with fault::write_file_atomic, so the checkpoint
// path always holds either the complete previous checkpoint or the complete
// new one — a crash at any syscall can tear only the temp file (pinned by
// the checkpoint crash-matrix test). Readers validate magic, endianness,
// version, size, and CRC before interpreting a single payload byte, and
// verify_checkpoint_meta compares the recorded config hash and input
// fingerprints against the current invocation — a corrupted, truncated, or
// stale checkpoint is rejected loudly (CheckpointError, CLI exit code 4)
// instead of silently resumed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/engine.h"
#include "fault/io.h"
#include "net/error.h"

namespace mapit::core {

/// A checkpoint file is unusable (corrupt, truncated, wrong version) or
/// does not match the current invocation (config hash or input fingerprint
/// mismatch). The CLI maps this to exit code 4.
class CheckpointError : public Error {
 public:
  using Error::Error;
};

inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Identity of the run a checkpoint belongs to. All four values must match
/// before a resume is allowed; fingerprints are FNV-1a digests of the raw
/// input file bytes, so any edit to the corpus, RIB, or AS datasets between
/// the checkpointed run and the resume is caught.
struct CheckpointMeta {
  std::uint64_t config_hash = 0;
  std::uint64_t corpus_fingerprint = 0;
  std::uint64_t rib_fingerprint = 0;
  /// Combined digest of the optional datasets (relationships, as2org,
  /// IXP prefixes); zero-seeded, so "no datasets" is a stable value.
  std::uint64_t datasets_fingerprint = 0;

  friend bool operator==(const CheckpointMeta&,
                         const CheckpointMeta&) = default;
};

/// Everything needed to resume a run: its identity, the boundary the engine
/// paused at, iterations completed, and the full save_state() blob.
struct Checkpoint {
  CheckpointMeta meta;
  RunBoundary boundary = RunBoundary::kAfterIteration;
  int iterations_done = 0;
  std::string engine_state;
};

/// FNV-1a hash of every Engine option that can change inference output.
/// threads and capture_snapshots are deliberately excluded: both are
/// proven output-invariant (equivalence tests), so a run may legitimately
/// resume with a different thread count.
[[nodiscard]] std::uint64_t config_hash(const Options& options);

/// Folds `bytes` into an FNV-1a digest seeded with `seed` (use
/// kFingerprintSeed to start a fresh digest; chain for multi-file digests).
inline constexpr std::uint64_t kFingerprintSeed = 0xcbf29ce484222325ull;
[[nodiscard]] std::uint64_t fingerprint_bytes(std::uint64_t seed,
                                              std::string_view bytes);

/// FNV-1a digest of a file's raw bytes, chained onto `seed`. Throws
/// mapit::Error (not CheckpointError — it is a load failure, exit code 3)
/// when the file cannot be read.
[[nodiscard]] std::uint64_t fingerprint_file(const std::string& path,
                                             std::uint64_t seed =
                                                 kFingerprintSeed);

/// Canonical checkpoint file inside a --checkpoint-dir.
[[nodiscard]] std::string checkpoint_path(const std::string& dir);

/// Serializes `checkpoint` and atomically replaces `path` with it via
/// fault::write_file_atomic. Throws mapit::Error on I/O failure (the
/// destination then still holds the previous complete checkpoint, if any).
void write_checkpoint(const std::string& path, const Checkpoint& checkpoint,
                      fault::Io& io = fault::system_io());

/// Fully validates an in-memory checkpoint image (header, endianness,
/// version, size, CRC, payload). Throws CheckpointError naming `context`
/// (a path or a synthetic label) when anything is wrong. This is the whole
/// validation path minus file I/O — the fuzz harness drives it directly.
[[nodiscard]] Checkpoint read_checkpoint_bytes(
    std::string_view bytes, const std::string& context = "checkpoint");

/// Reads and fully validates a checkpoint file. Throws CheckpointError when
/// the file is missing, unreadable, truncated, of a foreign endianness or
/// version, fails its CRC, or carries a malformed payload.
[[nodiscard]] Checkpoint read_checkpoint(const std::string& path,
                                         fault::Io& io = fault::system_io());

/// Rejects a resume whose inputs or configuration differ from the
/// checkpointed run's. Throws CheckpointError naming the mismatched field.
void verify_checkpoint_meta(const CheckpointMeta& expected,
                            const CheckpointMeta& recorded);

}  // namespace mapit::core
