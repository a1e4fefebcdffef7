#include "core/checkpoint.h"

#include <fcntl.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "core/wire.h"
#include "fault/atomic_file.h"
#include "net/crc32.h"

namespace mapit::core {

namespace {

using net::crc32;
using wire::append_u32;
using wire::append_u64;
using wire::Cursor;

constexpr char kMagic[8] = {'M', 'A', 'P', 'I', 'T', 'C', 'K', 'P'};
constexpr std::uint32_t kEndianMarker = 0x0A0B0C0Du;
constexpr std::size_t kHeaderSize = 32;

[[nodiscard]] std::string serialize_payload(const Checkpoint& checkpoint) {
  std::string payload;
  payload.reserve(4 * 8 + 1 + 4 + 8 + checkpoint.engine_state.size());
  append_u64(payload, checkpoint.meta.config_hash);
  append_u64(payload, checkpoint.meta.corpus_fingerprint);
  append_u64(payload, checkpoint.meta.rib_fingerprint);
  append_u64(payload, checkpoint.meta.datasets_fingerprint);
  payload.push_back(
      static_cast<char>(static_cast<std::uint8_t>(checkpoint.boundary)));
  append_u32(payload, static_cast<std::uint32_t>(checkpoint.iterations_done));
  append_u64(payload, checkpoint.engine_state.size());
  payload.append(checkpoint.engine_state);
  return payload;
}

[[nodiscard]] Checkpoint parse_payload(std::string_view payload) {
  Cursor cursor(payload);
  Checkpoint out;
  out.meta.config_hash = cursor.read_u64();
  out.meta.corpus_fingerprint = cursor.read_u64();
  out.meta.rib_fingerprint = cursor.read_u64();
  out.meta.datasets_fingerprint = cursor.read_u64();
  const std::uint8_t boundary = cursor.read_u8();
  if (boundary > static_cast<std::uint8_t>(RunBoundary::kAfterIteration)) {
    throw CheckpointError("checkpoint names an unknown run boundary");
  }
  out.boundary = static_cast<RunBoundary>(boundary);
  const std::uint32_t iterations = cursor.read_u32();
  if (iterations > static_cast<std::uint32_t>(INT32_MAX)) {
    throw CheckpointError("checkpoint iteration count out of range");
  }
  out.iterations_done = static_cast<int>(iterations);
  const std::uint64_t state_size = cursor.read_u64();
  out.engine_state = std::string(cursor.read_bytes(state_size));
  if (!cursor.exhausted()) {
    throw CheckpointError("checkpoint payload has trailing bytes");
  }
  return out;
}

}  // namespace

std::uint64_t config_hash(const Options& options) {
  // FNV-1a over a canonical encoding of every output-affecting option.
  // Field order is part of the format: changing it (or what is included)
  // requires bumping kCheckpointVersion.
  std::string encoded;
  std::uint64_t f_bits;
  static_assert(sizeof(f_bits) == sizeof(options.f));
  std::memcpy(&f_bits, &options.f, sizeof(f_bits));
  append_u64(encoded, f_bits);
  encoded.push_back(static_cast<char>(options.remove_rule));
  encoded.push_back(static_cast<char>(options.sibling_grouping));
  encoded.push_back(static_cast<char>(options.update_other_sides));
  encoded.push_back(static_cast<char>(options.ixp_aware));
  encoded.push_back(static_cast<char>(options.resolve_duals));
  encoded.push_back(static_cast<char>(options.resolve_inverses));
  encoded.push_back(static_cast<char>(options.stub_heuristic));
  append_u32(encoded, static_cast<std::uint32_t>(options.max_iterations));
  return fingerprint_bytes(kFingerprintSeed, encoded);
}

std::uint64_t fingerprint_bytes(std::uint64_t seed, std::string_view bytes) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fingerprint_file(const std::string& path, std::uint64_t seed) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open for fingerprinting: " + path);
  std::uint64_t hash = seed;
  char buffer[1 << 16];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    hash = fingerprint_bytes(
        hash, std::string_view(buffer,
                               static_cast<std::size_t>(in.gcount())));
  }
  if (in.bad()) throw Error("read failed while fingerprinting: " + path);
  return hash;
}

std::string checkpoint_path(const std::string& dir) {
  return dir + "/engine.ckpt";
}

void write_checkpoint(const std::string& path, const Checkpoint& checkpoint,
                      fault::Io& io) {
  const std::string payload = serialize_payload(checkpoint);
  std::string bytes;
  bytes.reserve(kHeaderSize + payload.size());
  bytes.append(kMagic, sizeof(kMagic));
  append_u32(bytes, kEndianMarker);
  append_u32(bytes, kCheckpointVersion);
  append_u64(bytes, payload.size());
  append_u32(bytes, crc32(payload));
  append_u32(bytes, 0);  // reserved
  bytes.append(payload);
  fault::write_file_atomic(path, bytes, io);
}

Checkpoint read_checkpoint_bytes(std::string_view bytes,
                                 const std::string& context) {
  if (bytes.size() < kHeaderSize) {
    throw CheckpointError("checkpoint file too small: " + context);
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError("bad checkpoint magic: " + context);
  }
  Cursor header(bytes.substr(sizeof(kMagic), kHeaderSize - sizeof(kMagic)));
  if (header.read_u32() != kEndianMarker) {
    throw CheckpointError("checkpoint written with foreign endianness: " +
                          context);
  }
  const std::uint32_t version = header.read_u32();
  if (version != kCheckpointVersion) {
    throw CheckpointError("unsupported checkpoint version " +
                          std::to_string(version) + ": " + context);
  }
  const std::uint64_t payload_size = header.read_u64();
  if (payload_size != bytes.size() - kHeaderSize) {
    throw CheckpointError("checkpoint payload size mismatch: " + context);
  }
  const std::uint32_t expected_crc = header.read_u32();
  // Reserved bytes must be zero: the bit-flip rejection matrix covers every
  // header byte, and a version-1 reader that ignored them could silently
  // accept a file some future version relies on them to disambiguate.
  if (header.read_u32() != 0) {
    throw CheckpointError("checkpoint reserved header bytes are nonzero: " +
                          context);
  }
  const std::string_view payload = bytes.substr(kHeaderSize);
  if (crc32(payload) != expected_crc) {
    throw CheckpointError("checkpoint CRC mismatch: " + context);
  }
  return parse_payload(payload);
}

Checkpoint read_checkpoint(const std::string& path, fault::Io& io) {
  const int fd = io.open(path.c_str(), O_RDONLY | O_CLOEXEC, 0);
  if (fd < 0) {
    throw CheckpointError("cannot open checkpoint " + path + ": " +
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
      throw CheckpointError("read failed on checkpoint " + path + ": " +
                            std::strerror(saved));
    }
    if (got == 0) break;
    bytes.append(buffer, static_cast<std::size_t>(got));
  }
  (void)io.close(fd);
  return read_checkpoint_bytes(bytes, path);
}

void verify_checkpoint_meta(const CheckpointMeta& expected,
                            const CheckpointMeta& recorded) {
  if (recorded.config_hash != expected.config_hash) {
    throw CheckpointError(
        "checkpoint was written with different engine options "
        "(config hash mismatch); rerun with the original options or start "
        "fresh");
  }
  if (recorded.corpus_fingerprint != expected.corpus_fingerprint) {
    throw CheckpointError(
        "checkpoint was written against a different trace corpus "
        "(fingerprint mismatch)");
  }
  if (recorded.rib_fingerprint != expected.rib_fingerprint) {
    throw CheckpointError(
        "checkpoint was written against a different RIB "
        "(fingerprint mismatch)");
  }
  if (recorded.datasets_fingerprint != expected.datasets_fingerprint) {
    throw CheckpointError(
        "checkpoint was written against different AS datasets "
        "(fingerprint mismatch)");
  }
}

}  // namespace mapit::core
