// Checkpoint file format and run-identity checks: field-exact round-trips,
// the every-bit-flip and every-truncation rejection matrices over a whole
// checkpoint file, config-hash sensitivity (output-affecting options only),
// and the FNV-1a input fingerprinting used to pin a checkpoint to its
// corpus/RIB/datasets (input_meta).
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "core/engine.h"
#include "core/run_inputs.h"
#include "net/error.h"

namespace mapit::core {
namespace {

namespace fs = std::filesystem;

Checkpoint sample_checkpoint() {
  Checkpoint ckpt;
  ckpt.meta.config_hash = 0x1111111111111111ull;
  ckpt.meta.corpus_fingerprint = 0x2222222222222222ull;
  ckpt.meta.rib_fingerprint = 0x3333333333333333ull;
  ckpt.meta.datasets_fingerprint = 0x4444444444444444ull;
  ckpt.boundary = RunBoundary::kAfterAddStep;
  ckpt.iterations_done = 7;
  // Embedded NUL and high bytes: the state blob is binary, not text.
  ckpt.engine_state = std::string("state\0with\xff\x01binary", 18);
  return ckpt;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("mapit_checkpoint_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    path_ = checkpoint_path(dir_.string());
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string file_bytes() const {
    std::ifstream in(path_, std::ios::binary);
    EXPECT_TRUE(in.good());
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  void overwrite_file(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(CheckpointTest, RoundTripPreservesEveryField) {
  const Checkpoint original = sample_checkpoint();
  write_checkpoint(path_, original);
  const Checkpoint restored = read_checkpoint(path_);
  EXPECT_EQ(restored.meta, original.meta);
  EXPECT_EQ(restored.boundary, original.boundary);
  EXPECT_EQ(restored.iterations_done, original.iterations_done);
  EXPECT_EQ(restored.engine_state, original.engine_state);
}

TEST_F(CheckpointTest, RewriteAtomicallyReplacesThePreviousCheckpoint) {
  write_checkpoint(path_, sample_checkpoint());
  Checkpoint second = sample_checkpoint();
  second.boundary = RunBoundary::kAfterIteration;
  second.iterations_done = 12;
  second.engine_state += "-more-state";
  write_checkpoint(path_, second);
  const Checkpoint restored = read_checkpoint(path_);
  EXPECT_EQ(restored.iterations_done, 12);
  EXPECT_EQ(restored.engine_state, second.engine_state);
  // The atomic rewrite leaves no temp files behind.
  EXPECT_EQ(std::distance(fs::directory_iterator(dir_),
                          fs::directory_iterator{}),
            1);
}

TEST_F(CheckpointTest, CheckpointPathIsTheCanonicalFileInTheDirectory) {
  EXPECT_EQ(checkpoint_path("/some/dir"), "/some/dir/engine.ckpt");
}

TEST_F(CheckpointTest, MissingFileIsRejected) {
  EXPECT_THROW((void)read_checkpoint(path_), CheckpointError);
}

TEST_F(CheckpointTest, EmptyStateBlobRoundTrips) {
  Checkpoint ckpt = sample_checkpoint();
  ckpt.engine_state.clear();
  write_checkpoint(path_, ckpt);
  EXPECT_EQ(read_checkpoint(path_).engine_state, "");
}

// The headline corruption guarantee: flipping ANY single bit anywhere in
// the file — header fields, reserved bytes, CRC itself, payload — must be
// rejected loudly, never resumed from.
TEST_F(CheckpointTest, EveryBitFlipIsRejected) {
  write_checkpoint(path_, sample_checkpoint());
  const std::string good = file_bytes();
  ASSERT_GE(good.size(), 32u);
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^
                                 (1u << bit));
      overwrite_file(bad);
      EXPECT_THROW((void)read_checkpoint(path_), CheckpointError)
          << "flip accepted at byte " << i << " bit " << bit;
    }
  }
}

// And every truncation, down to the empty file.
TEST_F(CheckpointTest, EveryTruncationIsRejected) {
  write_checkpoint(path_, sample_checkpoint());
  const std::string good = file_bytes();
  for (std::size_t len = 0; len < good.size(); ++len) {
    overwrite_file(good.substr(0, len));
    EXPECT_THROW((void)read_checkpoint(path_), CheckpointError)
        << "truncation to " << len << " bytes accepted";
  }
}

TEST_F(CheckpointTest, TrailingGarbageIsRejected) {
  write_checkpoint(path_, sample_checkpoint());
  overwrite_file(file_bytes() + 'x');
  EXPECT_THROW((void)read_checkpoint(path_), CheckpointError);
}

TEST_F(CheckpointTest, ForeignVersionIsRejected) {
  write_checkpoint(path_, sample_checkpoint());
  std::string bad = file_bytes();
  // Version field lives at offset 12 (after magic + endianness marker).
  const std::uint32_t foreign = kCheckpointVersion + 1;
  bad.replace(12, 4, reinterpret_cast<const char*>(&foreign), 4);
  overwrite_file(bad);
  EXPECT_THROW((void)read_checkpoint(path_), CheckpointError);
}

TEST_F(CheckpointTest, ConfigHashCoversEveryOutputAffectingOption) {
  const Options base;
  const std::uint64_t reference = config_hash(base);
  EXPECT_EQ(config_hash(base), reference) << "hash must be deterministic";

  Options changed = base;
  changed.f = 0.75;
  EXPECT_NE(config_hash(changed), reference);
  changed = base;
  changed.remove_rule = RemoveRule::kAddRule;
  EXPECT_NE(config_hash(changed), reference);
  changed = base;
  changed.max_iterations = base.max_iterations + 1;
  EXPECT_NE(config_hash(changed), reference);

  const auto toggles = {
      &Options::sibling_grouping, &Options::update_other_sides,
      &Options::ixp_aware,        &Options::resolve_duals,
      &Options::resolve_inverses, &Options::stub_heuristic,
  };
  for (bool Options::*toggle : toggles) {
    changed = base;
    changed.*toggle = !(base.*toggle);
    EXPECT_NE(config_hash(changed), reference);
  }
}

TEST_F(CheckpointTest, ConfigHashIgnoresOutputInvariantKnobs) {
  // threads and capture_snapshots are proven output-invariant (engine
  // equivalence tests), so a resume may change them freely — the hash
  // must not see them.
  const Options base;
  const std::uint64_t reference = config_hash(base);
  Options changed = base;
  changed.threads = 8;
  EXPECT_EQ(config_hash(changed), reference);
  changed = base;
  changed.capture_snapshots = true;
  EXPECT_EQ(config_hash(changed), reference);
}

TEST_F(CheckpointTest, FingerprintChainsLikeConcatenation) {
  const std::uint64_t whole = fingerprint_bytes(kFingerprintSeed, "abcdef");
  const std::uint64_t chained = fingerprint_bytes(
      fingerprint_bytes(kFingerprintSeed, "abc"), "def");
  EXPECT_EQ(chained, whole);
  EXPECT_NE(fingerprint_bytes(kFingerprintSeed, "abcdef"),
            fingerprint_bytes(kFingerprintSeed, "abcdeg"));
  EXPECT_NE(fingerprint_bytes(kFingerprintSeed, "ab"),
            fingerprint_bytes(kFingerprintSeed, "ba"));
}

TEST_F(CheckpointTest, FingerprintFileMatchesInMemoryDigest) {
  const std::string content("trace\0bytes\xff", 12);
  const std::string file = (dir_ / "input.bin").string();
  {
    std::ofstream out(file, std::ios::binary);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  EXPECT_EQ(fingerprint_file(file),
            fingerprint_bytes(kFingerprintSeed, content));
  // Chaining a second file is the multi-dataset digest the CLI builds.
  EXPECT_EQ(fingerprint_file(file, fingerprint_file(file)),
            fingerprint_bytes(fingerprint_bytes(kFingerprintSeed, content),
                              content));
}

// Checkpoints and delta journals already on disk carry these identities,
// so input_meta must keep computing them bit for bit. The literals were
// computed by the loaders that preceded input_meta, over the same bytes.
TEST_F(CheckpointTest, InputMetaMatchesThePinnedIdentities) {
  const auto write = [&](const char* name, const std::string& bytes) {
    const std::string path = (dir_ / name).string();
    std::ofstream(path, std::ios::binary) << bytes;
    return path;
  };
  InputPaths paths;
  paths.traces = write("traces.txt", "0|11.2.0.2|11.1.0.1@1 11.2.0.1@2\n");
  paths.rib = write("rib.txt", "rc0|11.1.0.0/16|100\nrc0|11.2.0.0/16|200\n");
  paths.relationships = write("relationships.txt", "100|200|-1\n");
  paths.as2org = write("as2org.txt", "100|500\n200|500\n");
  paths.ixps = write("ixps.txt", "195.1.0.0/24|1\n");
  const Options options;

  const CheckpointMeta all = input_meta(paths, options);
  EXPECT_EQ(all, (CheckpointMeta{0x0f877e4f0a48f44aull, 0x721e89fc950af2f3ull,
                                 0x18b1642debfea483ull,
                                 0x4d56017f7c089f06ull}));

  InputPaths absent = paths;
  absent.as2org.clear();
  const CheckpointMeta without = input_meta(absent, options);
  EXPECT_EQ(without.datasets_fingerprint, 0x585db3a4185cfa17ull);

  InputPaths emptied = paths;
  emptied.as2org = write("empty.txt", "");
  const CheckpointMeta empty = input_meta(emptied, options);
  EXPECT_EQ(empty.datasets_fingerprint, 0xfbd48325d874c739ull);
  EXPECT_NE(without, empty);

  // The same bytes in another dataset slot are another run.
  InputPaths swapped = paths;
  std::swap(swapped.relationships, swapped.as2org);
  EXPECT_NE(input_meta(swapped, options), all);
}

TEST_F(CheckpointTest, MissingInputFileIsALoadErrorNotACheckpointError) {
  const std::string missing = (dir_ / "no_such_file").string();
  try {
    (void)fingerprint_file(missing);
    FAIL() << "fingerprinting a missing file must throw";
  } catch (const CheckpointError&) {
    FAIL() << "a missing input is a load failure (exit 3), not a "
              "checkpoint mismatch (exit 4)";
  } catch (const Error&) {
    // Expected: plain mapit::Error.
  }
}

TEST_F(CheckpointTest, VerifyMetaAcceptsAnExactMatch) {
  const CheckpointMeta meta = sample_checkpoint().meta;
  EXPECT_NO_THROW(verify_checkpoint_meta(meta, meta));
}

TEST_F(CheckpointTest, VerifyMetaNamesTheMismatchedField) {
  const CheckpointMeta expected = sample_checkpoint().meta;
  struct Case {
    std::uint64_t CheckpointMeta::*field;
    const char* names;
  };
  const Case cases[] = {
      {&CheckpointMeta::config_hash, "config hash"},
      {&CheckpointMeta::corpus_fingerprint, "trace corpus"},
      {&CheckpointMeta::rib_fingerprint, "RIB"},
      {&CheckpointMeta::datasets_fingerprint, "AS datasets"},
  };
  for (const Case& c : cases) {
    CheckpointMeta recorded = expected;
    recorded.*(c.field) ^= 1;
    try {
      verify_checkpoint_meta(expected, recorded);
      FAIL() << "mismatch on " << c.names << " accepted";
    } catch (const CheckpointError& error) {
      EXPECT_NE(std::string(error.what()).find(c.names), std::string::npos)
          << "message should name \"" << c.names << "\": " << error.what();
    }
  }
}

}  // namespace
}  // namespace mapit::core
