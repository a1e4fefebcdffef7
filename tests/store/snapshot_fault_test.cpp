// Snapshot artifact fault matrix: a crash, ENOSPC, short write, or failed
// rename/fsync at ANY injected syscall of write_snapshot_file must leave
// the destination path holding either the complete old artifact or the
// complete new one — CRC-valid and fully readable — never a torn file.
// tools/ci.sh runs it in its `snapshot` stage as well as its `fault`
// stage.
#include "store/writer.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <string>

#include "fault/plan.h"
#include "net/error.h"
#include "store/reader.h"

namespace mapit::store {
namespace {

namespace fs = std::filesystem;

SnapshotData snapshot_a() {
  SnapshotData data;
  data.inferences.push_back(
      InferenceRecord{0x0A000001u, 0, 0, 0, 0, 100, 200, 3, 4});
  data.links.push_back(LinkRecord{0x0A000001u, 0x0A000002u, 100, 200, 2, 5,
                                  8, 0, {0, 0, 0}});
  data.bgp_prefixes.push_back(PrefixRecord{0x0A000000u, 100, 8, {0, 0, 0}});
  data.mappings.push_back(MappingRecord{0x0A000001u, 300, 1, {0, 0, 0}});
  return data;
}

/// A different, larger snapshot so old/new are distinguishable by CRC and
/// size, and a torn mix of the two cannot masquerade as either.
SnapshotData snapshot_b() {
  SnapshotData data = snapshot_a();
  data.inferences.push_back(
      InferenceRecord{0x0A000002u, 0, 1, 0, 0, 200, 300, 2, 2});
  data.inferences.push_back(
      InferenceRecord{0x0A000003u, 1, 2, kInferenceUncertain, 0, 300, 400,
                      1, 3});
  data.bgp_prefixes.push_back(PrefixRecord{0x14000000u, 200, 8, {0, 0, 0}});
  data.fallback_prefixes.push_back(
      PrefixRecord{0xC0000000u, 999, 4, {0, 0, 0}});
  return data;
}

class SnapshotFaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("mapit_snapshot_fault_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    path_ = (dir_ / "snapshot.bin").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Opens + fully validates the destination artifact (magic, size, CRC,
  /// section table) and returns its payload CRC. Any tear throws.
  std::uint32_t destination_crc() {
    const SnapshotReader reader = SnapshotReader::open(path_);
    return reader.payload_crc32();
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(SnapshotFaultMatrixTest, CrashAtEveryInjectionPoint) {
  const WriteInfo old_info = write_snapshot_file(snapshot_a(), path_);

  // Counting pass over a clean rewrite: every syscall it issues is an
  // injection point for the matrix below.
  fault::FaultPlan counter;
  const WriteInfo new_info =
      write_snapshot_file(snapshot_b(), path_, counter);
  ASSERT_NE(old_info.payload_crc32, new_info.payload_crc32);
  ASSERT_NE(old_info.bytes, new_info.bytes);
  ASSERT_EQ(destination_crc(), new_info.payload_crc32);

  const fault::Op kOps[] = {fault::Op::kOpen, fault::Op::kWrite,
                            fault::Op::kFsync, fault::Op::kRename,
                            fault::Op::kClose};
  int crash_points = 0;
  for (const fault::Op op : kOps) {
    for (std::uint64_t nth = 1; nth <= counter.calls(op); ++nth) {
      write_snapshot_file(snapshot_a(), path_);  // reset: destination = old
      fault::FaultPlan plan;
      plan.add(fault::Fault{.op = op, .nth = nth, .crash = true});
      EXPECT_THROW(write_snapshot_file(snapshot_b(), path_, plan),
                   fault::InjectedCrash)
          << to_string(op) << " call " << nth;
      ++crash_points;
      std::uint32_t crc = 0;
      ASSERT_NO_THROW(crc = destination_crc())
          << "torn artifact after crash at " << to_string(op) << " call "
          << nth;
      EXPECT_TRUE(crc == old_info.payload_crc32 ||
                  crc == new_info.payload_crc32)
          << "destination is neither old nor new after crash at "
          << to_string(op) << " call " << nth;
    }
  }
  EXPECT_GE(crash_points, 8);
}

TEST_F(SnapshotFaultMatrixTest, ShortWritesPlusCrashNeverTear) {
  const WriteInfo old_info = write_snapshot_file(snapshot_a(), path_);
  // Dribble the payload out 7 bytes per write, then crash mid-stream: the
  // partial temp file must never reach the destination name.
  for (const std::uint64_t crash_at : {2u, 5u, 9u}) {
    fault::FaultPlan plan;
    plan.add(fault::Fault{.op = fault::Op::kWrite, .nth = 1,
                          .repeat = crash_at - 1, .short_bytes = 7});
    plan.add(fault::Fault{.op = fault::Op::kWrite, .nth = crash_at,
                          .crash = true});
    EXPECT_THROW(write_snapshot_file(snapshot_b(), path_, plan),
                 fault::InjectedCrash);
    std::uint32_t crc = 0;
    ASSERT_NO_THROW(crc = destination_crc()) << "crash at write " << crash_at;
    EXPECT_EQ(crc, old_info.payload_crc32);
  }
}

TEST_F(SnapshotFaultMatrixTest, EnospcAndFailedRenameKeepOldArtifact) {
  const WriteInfo old_info = write_snapshot_file(snapshot_a(), path_);
  struct Case {
    fault::Op op;
    int err;
  };
  for (const Case& c : {Case{fault::Op::kWrite, ENOSPC},
                        Case{fault::Op::kFsync, EIO},
                        Case{fault::Op::kRename, EXDEV}}) {
    fault::FaultPlan plan;
    plan.add(fault::Fault{.op = c.op, .nth = 1, .inject_errno = c.err});
    EXPECT_THROW(write_snapshot_file(snapshot_b(), path_, plan), Error)
        << to_string(c.op);
    EXPECT_EQ(destination_crc(), old_info.payload_crc32) << to_string(c.op);
    // The errno path cleans its temp file: only the artifact remains.
    EXPECT_EQ(std::distance(fs::directory_iterator(dir_),
                            fs::directory_iterator{}),
              1)
        << to_string(c.op);
  }
}

TEST_F(SnapshotFaultMatrixTest, EintrDuringWriteIsInvisible) {
  write_snapshot_file(snapshot_a(), path_);
  fault::FaultPlan plan;
  plan.add(fault::Fault{.op = fault::Op::kWrite, .nth = 1,
                        .inject_errno = EINTR});
  const WriteInfo info = write_snapshot_file(snapshot_b(), path_, plan);
  EXPECT_EQ(destination_crc(), info.payload_crc32);
}

TEST_F(SnapshotFaultMatrixTest, ReaderSurfacesOpenAndStatFailures) {
  write_snapshot_file(snapshot_a(), path_);
  {
    fault::FaultPlan plan;
    plan.add(fault::Fault{.op = fault::Op::kOpen, .nth = 1,
                          .inject_errno = EMFILE});
    EXPECT_THROW((void)SnapshotReader::open(path_, plan), Error);
  }
  {
    fault::FaultPlan plan;
    plan.add(fault::Fault{.op = fault::Op::kFstat, .nth = 1,
                          .inject_errno = EIO});
    EXPECT_THROW((void)SnapshotReader::open(path_, plan), Error);
  }
  // And with the faults consumed, the same path opens fine.
  fault::FaultPlan spent;
  spent.add(fault::Fault{.op = fault::Op::kOpen, .nth = 2,
                         .inject_errno = EMFILE});
  EXPECT_NO_THROW((void)SnapshotReader::open(path_, spent));
}

}  // namespace
}  // namespace mapit::store
