// The checkpoint/resume headline guarantee (ISSUE acceptance criteria):
// stopping a run at ANY pass boundary, saving the engine state, and
// resuming it in a fresh engine — same or different thread count — produces
// byte-identical inferences, equal stats, and equal final mappings to an
// uninterrupted run. Both experiment scales; the /Standard instantiations
// carry the slow label. The file-level crash matrix for the checkpoint
// artifact itself lives in tests/core/checkpoint_fault_test.cpp; the
// process-level kill/resume chain through the real CLI is in tools/ci.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include <filesystem>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/result_io.h"
#include "eval/experiment.h"
#include "net/error.h"

namespace mapit {
namespace {

namespace fs = std::filesystem;

std::string serialize(const core::Result& result) {
  std::ostringstream out;
  core::write_inferences(out, result.inferences);
  core::write_inferences(out, result.uncertain);
  return out.str();
}

/// Engine state captured at one run boundary, as a checkpoint would hold it.
struct SavedState {
  std::string state;
  core::RunBoundary boundary = core::RunBoundary::kAfterIteration;
  int iterations_done = 0;
};

core::Engine make_engine(const eval::Experiment& exp,
                         const core::Options& options) {
  return core::Engine(exp.graph(), exp.ip2as(), exp.orgs(),
                      exp.relationships(), options);
}

/// Runs until the `stop_at`-th boundary (1-based), saves there, and
/// abandons the run — the in-process equivalent of kill -9 after a
/// checkpoint write. Returns nullopt when the run completes first.
std::optional<SavedState> run_and_stop_at(const eval::Experiment& exp,
                                          const core::Options& options,
                                          int stop_at) {
  core::Engine engine = make_engine(exp, options);
  SavedState saved;
  int boundaries = 0;
  core::RunControl control;
  control.on_boundary = [&](core::RunBoundary boundary, int iterations) {
    if (++boundaries < stop_at) return true;
    saved.state = engine.save_state();
    saved.boundary = boundary;
    saved.iterations_done = iterations;
    return false;
  };
  const core::RunOutcome outcome = engine.run_controlled(control);
  if (outcome.completed()) return std::nullopt;
  EXPECT_EQ(outcome.stopped_at, saved.boundary);
  EXPECT_EQ(outcome.iterations_done, saved.iterations_done);
  return saved;
}

core::Result resume_from(const eval::Experiment& exp,
                         const core::Options& options,
                         const SavedState& saved) {
  core::Engine engine = make_engine(exp, options);
  core::RunControl control;
  control.resume_state = &saved.state;
  control.resume_boundary = saved.boundary;
  const core::RunOutcome outcome = engine.run_controlled(control);
  EXPECT_TRUE(outcome.completed()) << "resumed run did not complete";
  return *outcome.result;
}

/// Parameter: true = standard scale, false = small scale.
class CheckpointResumeTest : public ::testing::TestWithParam<bool> {
 protected:
  static const eval::Experiment& experiment(bool standard_scale) {
    static const auto standard =
        eval::Experiment::build(eval::ExperimentConfig::standard());
    static const auto small =
        eval::Experiment::build(eval::ExperimentConfig::small());
    return standard_scale ? *standard : *small;
  }
};

TEST_P(CheckpointResumeTest, KillAtEveryBoundaryThenResumeIsByteIdentical) {
  const eval::Experiment& exp = experiment(GetParam());
  core::Options options;
  options.threads = 1;

  const core::Result reference = *make_engine(exp, options)
                                      .run_controlled({})
                                      .result;
  const std::string expected = serialize(reference);

  // Count the boundaries of an uninterrupted run, then kill at each one.
  int total_boundaries = 0;
  {
    core::RunControl counting;
    counting.on_boundary = [&](core::RunBoundary, int) {
      ++total_boundaries;
      return true;
    };
    ASSERT_TRUE(
        make_engine(exp, options).run_controlled(counting).completed());
  }
  ASSERT_GE(total_boundaries, 2) << "run too short to exercise boundaries";

  for (int stop_at = 1; stop_at <= total_boundaries; ++stop_at) {
    const std::optional<SavedState> saved =
        run_and_stop_at(exp, options, stop_at);
    ASSERT_TRUE(saved.has_value()) << "boundary " << stop_at << " not hit";
    for (unsigned resume_threads : {1u, 8u}) {
      core::Options resume_options = options;
      resume_options.threads = resume_threads;
      const core::Result resumed = resume_from(exp, resume_options, *saved);
      const std::string label = "boundary " + std::to_string(stop_at) +
                                " resume_threads=" +
                                std::to_string(resume_threads);
      EXPECT_EQ(serialize(resumed), expected) << label;
      EXPECT_EQ(resumed.stats, reference.stats) << label;
      EXPECT_EQ(resumed.final_mappings, reference.final_mappings) << label;
    }
  }
}

// A state saved by a parallel run must resume identically too (the CLI
// writes checkpoints from whatever --threads the run used).
TEST_P(CheckpointResumeTest, ParallelSaveResumesInSequentialEngine) {
  const eval::Experiment& exp = experiment(GetParam());
  core::Options parallel_options;
  parallel_options.threads = 8;
  core::Options sequential_options;
  sequential_options.threads = 1;

  const core::Result reference =
      *make_engine(exp, sequential_options).run_controlled({}).result;
  const std::optional<SavedState> saved =
      run_and_stop_at(exp, parallel_options, 2);
  ASSERT_TRUE(saved.has_value());
  const core::Result resumed = resume_from(exp, sequential_options, *saved);
  EXPECT_EQ(serialize(resumed), serialize(reference));
  EXPECT_EQ(resumed.stats, reference.stats);
  EXPECT_EQ(resumed.final_mappings, reference.final_mappings);
}

// Resume-of-resume: stop at every boundary in sequence, saving and
// restoring through a real checkpoint FILE each leg — the in-process
// version of the ci.sh kill/resume chain.
TEST_P(CheckpointResumeTest, ChainedFileCheckpointsReachTheSameResult) {
  const eval::Experiment& exp = experiment(GetParam());
  core::Options options;
  options.threads = 1;
  const core::Result reference =
      *make_engine(exp, options).run_controlled({}).result;

  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("mapit_resume_chain_" + std::to_string(::getpid()) +
       (GetParam() ? "_standard" : "_small"));
  fs::create_directories(dir);
  const std::string path = core::checkpoint_path(dir.string());
  core::CheckpointMeta meta;
  meta.config_hash = core::config_hash(options);
  meta.corpus_fingerprint = 11;
  meta.rib_fingerprint = 22;
  meta.datasets_fingerprint = 33;

  std::optional<core::Result> final_result;
  std::optional<SavedState> carried;
  int legs = 0;
  while (!final_result.has_value()) {
    ASSERT_LT(++legs, 100) << "resume chain does not terminate";
    core::Engine engine = make_engine(exp, options);
    SavedState saved;
    bool stopped = false;
    core::RunControl control;
    if (carried.has_value()) {
      control.resume_state = &carried->state;
      control.resume_boundary = carried->boundary;
    }
    control.on_boundary = [&](core::RunBoundary boundary, int iterations) {
      stopped = true;
      saved.state = engine.save_state();
      saved.boundary = boundary;
      saved.iterations_done = iterations;
      return false;  // one boundary per leg, like --stop-after 1
    };
    const core::RunOutcome outcome = engine.run_controlled(control);
    if (outcome.completed()) {
      final_result = *outcome.result;
      break;
    }
    ASSERT_TRUE(stopped);
    // Through the real artifact: write, read back, verify identity.
    core::Checkpoint ckpt;
    ckpt.meta = meta;
    ckpt.boundary = saved.boundary;
    ckpt.iterations_done = saved.iterations_done;
    ckpt.engine_state = saved.state;
    core::write_checkpoint(path, ckpt);
    const core::Checkpoint restored = core::read_checkpoint(path);
    ASSERT_NO_THROW(core::verify_checkpoint_meta(meta, restored.meta));
    carried = SavedState{restored.engine_state, restored.boundary,
                         restored.iterations_done};
  }
  fs::remove_all(dir);

  ASSERT_GE(legs, 3) << "chain never actually paused";
  EXPECT_EQ(serialize(*final_result), serialize(reference));
  EXPECT_EQ(final_result->stats, reference.stats);
  EXPECT_EQ(final_result->final_mappings, reference.final_mappings);
}

// Guard rails that need an engine but not scale: small experiment only.
using CheckpointResumeGuardTest = CheckpointResumeTest;

TEST_F(CheckpointResumeGuardTest, ResumeRequiresSnapshotCaptureOff) {
  const eval::Experiment& exp = experiment(false);
  core::Options options;
  options.threads = 1;
  const std::optional<SavedState> saved = run_and_stop_at(exp, options, 1);
  ASSERT_TRUE(saved.has_value());
  core::Options with_snapshots = options;
  with_snapshots.capture_snapshots = true;
  core::Engine engine = make_engine(exp, with_snapshots);
  core::RunControl control;
  control.resume_state = &saved->state;
  control.resume_boundary = saved->boundary;
  EXPECT_THROW((void)engine.run_controlled(control), Error);
}

TEST_F(CheckpointResumeGuardTest, RestoreRejectsTruncatedOrPaddedBlobs) {
  const eval::Experiment& exp = experiment(false);
  core::Options options;
  options.threads = 1;
  const std::optional<SavedState> saved = run_and_stop_at(exp, options, 1);
  ASSERT_TRUE(saved.has_value());

  const auto resume_with = [&](const std::string& blob) {
    core::Engine engine = make_engine(exp, options);
    core::RunControl control;
    control.resume_state = &blob;
    control.resume_boundary = saved->boundary;
    return engine.run_controlled(control);
  };
  // A sane blob resumes; the mangled variants must be rejected, not
  // reinterpreted.
  EXPECT_TRUE(resume_with(saved->state).completed());
  EXPECT_THROW((void)resume_with(saved->state.substr(
                   0, saved->state.size() / 2)),
               core::CheckpointError);
  EXPECT_THROW((void)resume_with(saved->state + "xx"),
               core::CheckpointError);
  EXPECT_THROW((void)resume_with(std::string()), core::CheckpointError);
}

// A state blob's per-half entries, split out so a test can forge one the
// engine never writes (layout: Engine::save_state).
struct BlobEntries {
  struct Entry {
    std::uint32_t id = 0;
    std::uint8_t mask = 0;
    std::string payload;
  };
  static constexpr std::size_t kEntriesAt = 4 + 8 + 4 + 4 + 8 * 8 + 1;

  std::string head;  // everything before the entry count
  std::vector<Entry> entries;
  std::string tail;  // the convergence tracker

  explicit BlobEntries(const std::string& blob)
      : head(blob.substr(0, kEntriesAt)) {
    std::size_t at = kEntriesAt;
    const auto read = [&](std::size_t bytes) {
      std::string out = blob.substr(at, bytes);
      at += bytes;
      return out;
    };
    std::uint64_t count = 0;
    std::memcpy(&count, read(8).data(), 8);
    for (std::uint64_t e = 0; e < count; ++e) {
      Entry entry;
      std::memcpy(&entry.id, read(4).data(), 4);
      entry.mask = static_cast<std::uint8_t>(read(1)[0]);
      const std::size_t bytes = ((entry.mask & 0x01) ? 16u : 0u) +
                                ((entry.mask & 0x04) ? 4u : 0u) +
                                ((entry.mask & 0x08) ? 4u : 0u) +
                                ((entry.mask & 0x10) ? 4u : 0u);
      entry.payload = read(bytes);
      entries.push_back(entry);
    }
    tail = blob.substr(at);
  }

  [[nodiscard]] std::string blob() const {
    std::string out = head;
    const std::uint64_t count = entries.size();
    out.append(reinterpret_cast<const char*>(&count), 8);
    for (const Entry& entry : entries) {
      out.append(reinterpret_cast<const char*>(&entry.id), 4);
      out.push_back(static_cast<char>(entry.mask));
      out += entry.payload;
    }
    return out + tail;
  }

  /// The first entry `pred` accepts.
  template <typename Pred>
  Entry& first_where(Pred pred) {
    for (Entry& entry : entries) {
      if (pred(entry)) return entry;
    }
    throw std::logic_error("no such entry");
  }

  /// The first entry whose mask has (or, with `has` false, lacks) `bit`.
  Entry& first(std::uint8_t bit, bool has = true) {
    return first_where(
        [&](const Entry& entry) { return ((entry.mask & bit) != 0) == has; });
  }
};

TEST_F(CheckpointResumeGuardTest, RestoreRejectsEntriesTheEngineNeverWrites) {
  const eval::Experiment& exp = experiment(false);
  core::Options options;
  options.threads = 1;
  const std::optional<SavedState> saved = run_and_stop_at(exp, options, 1);
  ASSERT_TRUE(saved.has_value());
  const auto resume_with = [&](const std::string& blob) {
    core::Engine engine = make_engine(exp, options);
    core::RunControl control;
    control.resume_state = &blob;
    control.resume_boundary = saved->boundary;
    return engine.run_controlled(control);
  };
  const BlobEntries parsed(saved->state);
  ASSERT_EQ(parsed.blob(), saved->state);
  EXPECT_TRUE(resume_with(parsed.blob()).completed());

  // A direct override other than the inference's AS_N. It follows the 16
  // bytes of the direct inference and, when present, the 4-byte source.
  BlobEntries forged = parsed;
  BlobEntries::Entry& overridden = forged.first(0x01);
  overridden.payload[(overridden.mask & 0x04) != 0 ? 20u : 16u] ^= 1;
  EXPECT_THROW((void)resume_with(forged.blob()), core::CheckpointError);

  // An uncertain flag without a direct inference.
  forged = parsed;
  forged.first(0x01, /*has=*/false).mask |= 0x20;
  EXPECT_THROW((void)resume_with(forged.blob()), core::CheckpointError);

  // A direct inference on a phantom half (the last id, moved to the end).
  const auto last = static_cast<std::uint32_t>(exp.graph().half_count() - 1);
  ASSERT_GE(last, exp.graph().record_half_count());
  ASSERT_LT(parsed.entries.back().id, last);
  forged = parsed;
  BlobEntries::Entry direct = forged.first(0x01);
  std::erase_if(forged.entries, [&](const BlobEntries::Entry& entry) {
    return entry.id == direct.id;
  });
  direct.id = last;
  forged.entries.push_back(direct);
  EXPECT_THROW((void)resume_with(forged.blob()), core::CheckpointError);

  // The engine derives an indirect inference's source (the half's other
  // side) and the touched set, and keeps "none" as ASN 0, so it also
  // rejects blobs those records cannot hold.
  const auto busy = [&](std::uint32_t id) {
    return exp.graph().neighbor_ids(id).size() >= 2;
  };
  // An indirect source other than the half's other side: the other half of
  // the source's address. It follows the direct inference, if any.
  forged = parsed;
  BlobEntries::Entry& sourced = forged.first(0x04);
  sourced.payload[(sourced.mask & 0x01) != 0 ? 16u : 0u] ^= 1;
  EXPECT_THROW((void)resume_with(forged.blob()), core::CheckpointError);

  // An indirect override of 0, the last field of its entry.
  forged = parsed;
  BlobEntries::Entry& indirect = forged.first(0x10);
  indirect.payload.replace(indirect.payload.size() - 4, 4, 4, '\0');
  EXPECT_THROW((void)resume_with(forged.blob()), core::CheckpointError);

  // A direct inference whose AS_N is 0, its override 0 to match.
  forged = parsed;
  BlobEntries::Entry& unknown = forged.first(0x01);
  unknown.payload.replace(0, 4, 4, '\0');
  unknown.payload.replace((unknown.mask & 0x04) != 0 ? 20u : 16u, 4, 4, '\0');
  EXPECT_THROW((void)resume_with(forged.blob()), core::CheckpointError);

  // No entry for a half with two neighbours that holds nothing.
  forged = parsed;
  const std::uint32_t idle =
      forged
          .first_where([&](const BlobEntries::Entry& entry) {
            return entry.mask == 0x80 && busy(entry.id);
          })
          .id;
  std::erase_if(forged.entries, [&](const BlobEntries::Entry& entry) {
    return entry.id == idle;
  });
  EXPECT_THROW((void)resume_with(forged.blob()), core::CheckpointError);

  // An indirect inference on a half with fewer than two neighbours, without
  // the touched bit.
  forged = parsed;
  forged
      .first_where([&](const BlobEntries::Entry& entry) {
        return (entry.mask & 0x04) != 0 && !busy(entry.id);
      })
      .mask &= static_cast<std::uint8_t>(~0x80u);
  EXPECT_THROW((void)resume_with(forged.blob()), core::CheckpointError);
}

INSTANTIATE_TEST_SUITE_P(
    Scales, CheckpointResumeTest, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool>& param_info) {
      return param_info.param ? "Standard" : "Small";
    });

}  // namespace
}  // namespace mapit
