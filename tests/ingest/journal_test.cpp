// Delta-journal format tests: round-trip, the torn-tail / corruption
// distinction (an incomplete tail record is silently truncated; a complete
// record that fails validation is rejected loudly), identity verification
// against the base run, and the crash matrix — a crash, ENOSPC, or short
// write at ANY injected syscall of a journal session must leave the file
// replayable to a valid prefix of what was appended, never unreadable.
#include "core/journal.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fault/plan.h"

namespace mapit::core {
namespace {

namespace fs = std::filesystem;

CheckpointMeta meta_a() {
  CheckpointMeta meta;
  meta.config_hash = 0x1111111111111111ull;
  meta.corpus_fingerprint = 0x2222222222222222ull;
  meta.rib_fingerprint = 0x3333333333333333ull;
  meta.datasets_fingerprint = 0x4444444444444444ull;
  return meta;
}

std::vector<JournalRecord> sample_records() {
  return {
      JournalRecord::trace(0, "m 10.0.0.1 10.0.0.2 10.0.0.3 d"),
      JournalRecord::trace(31, "m 10.0.0.4 * 10.0.0.5 d"),
      JournalRecord::trace(kNoSourceOffset, "m 10.0.1.1 10.0.1.2 d"),
      JournalRecord::commit(1, 3, 0xDEADBEEFu),
      JournalRecord::trace(55, "m 10.0.2.1 10.0.2.2 d"),
      JournalRecord::commit(2, 4, 0x12345678u),
  };
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("mapit_journal_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    path_ = (dir_ / "delta.jnl").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes a fresh journal holding sample_records() and returns its bytes.
  std::string write_sample() {
    fs::remove(path_);
    JournalWriter writer = JournalWriter::open(path_, meta_a());
    for (const JournalRecord& record : sample_records()) {
      writer.append(record);
    }
    writer.sync();
    writer.close();
    return read_file(path_);
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(JournalTest, RoundTripPreservesMetaAndRecords) {
  write_sample();
  const JournalContents contents = read_journal(path_);
  EXPECT_EQ(contents.meta, meta_a());
  EXPECT_EQ(contents.records, sample_records());
  EXPECT_FALSE(contents.torn_tail);
  EXPECT_EQ(contents.durable_size, fs::file_size(path_));
}

TEST_F(JournalTest, ReopenVerifiesIdentityAndAppendsInPlace) {
  write_sample();
  JournalContents replayed;
  JournalWriter writer = JournalWriter::open(path_, meta_a(), &replayed);
  EXPECT_EQ(replayed.records, sample_records());
  writer.append(JournalRecord::trace(99, "m 10.0.3.1 10.0.3.2 d"));
  writer.sync();
  writer.close();
  const JournalContents contents = read_journal(path_);
  ASSERT_EQ(contents.records.size(), sample_records().size() + 1);
  EXPECT_EQ(contents.records.back().line, "m 10.0.3.1 10.0.3.2 d");
}

TEST_F(JournalTest, ForeignMetaIsRejected) {
  write_sample();
  for (int field = 0; field < 4; ++field) {
    CheckpointMeta other = meta_a();
    if (field == 0) other.config_hash ^= 1;
    if (field == 1) other.corpus_fingerprint ^= 1;
    if (field == 2) other.rib_fingerprint ^= 1;
    if (field == 3) other.datasets_fingerprint ^= 1;
    EXPECT_THROW((void)JournalWriter::open(path_, other), JournalError)
        << "meta field " << field;
  }
}

TEST_F(JournalTest, EveryTornTailLengthTruncatesSilently) {
  const std::string full = write_sample();
  const JournalContents whole = read_journal(path_);
  // Chop the file after the header at every possible byte length: each
  // prefix must replay to a prefix of the records — never throw.
  for (std::size_t len = kJournalHeaderSize; len < full.size(); ++len) {
    write_file(path_, full.substr(0, len));
    JournalContents contents;
    ASSERT_NO_THROW(contents = read_journal(path_)) << "length " << len;
    EXPECT_LE(contents.records.size(), whole.records.size());
    EXPECT_EQ(contents.torn_tail, contents.durable_size != len);
    for (std::size_t i = 0; i < contents.records.size(); ++i) {
      EXPECT_EQ(contents.records[i], whole.records[i]) << "length " << len;
    }
    // Opening for append repairs the tear and the writer stays usable.
    JournalContents replayed;
    JournalWriter writer = JournalWriter::open(path_, meta_a(), &replayed);
    EXPECT_FALSE(replayed.torn_tail);
    EXPECT_EQ(fs::file_size(path_), replayed.durable_size);
    writer.append(JournalRecord::commit(9, 9, 9));
    writer.sync();
    writer.close();
    EXPECT_EQ(read_journal(path_).records.size(),
              replayed.records.size() + 1);
  }
}

TEST_F(JournalTest, CompleteButCorruptRecordIsRejected) {
  const std::string full = write_sample();
  // Flip one byte inside the first record's payload: the frame is complete,
  // so this is corruption, not a torn tail.
  std::string corrupt = full;
  corrupt[kJournalHeaderSize + kJournalFrameSize + 9] ^= 0x40;
  write_file(path_, corrupt);
  EXPECT_THROW((void)read_journal(path_), JournalError);

  // Unknown record type (CRC recomputed to isolate the type check is not
  // needed: the type byte is outside the payload CRC).
  corrupt = full;
  corrupt[kJournalHeaderSize + 8] = 0x7F;
  write_file(path_, corrupt);
  EXPECT_THROW((void)read_journal(path_), JournalError);

  // Nonzero reserved frame bytes.
  corrupt = full;
  corrupt[kJournalHeaderSize + 10] = 0x01;
  write_file(path_, corrupt);
  EXPECT_THROW((void)read_journal(path_), JournalError);

  // Absurd payload size: corruption even though the bytes "run out".
  corrupt = full;
  corrupt[kJournalHeaderSize + 3] = 0x7F;  // size ~= 2^30
  write_file(path_, corrupt);
  EXPECT_THROW((void)read_journal(path_), JournalError);
}

TEST_F(JournalTest, HeaderCorruptionIsRejected) {
  const std::string full = write_sample();
  for (const std::size_t at : {std::size_t{0}, std::size_t{8},
                               std::size_t{12}, std::size_t{20},
                               std::size_t{48}, std::size_t{52}}) {
    std::string corrupt = full;
    corrupt[at] ^= 0x01;
    write_file(path_, corrupt);
    EXPECT_THROW((void)read_journal(path_), JournalError) << "byte " << at;
  }
  // A file shorter than the header cannot be a journal at all: the header
  // is created atomically, so a short file is foreign, not torn.
  write_file(path_, full.substr(0, kJournalHeaderSize - 1));
  EXPECT_THROW((void)read_journal(path_), JournalError);
}

TEST_F(JournalTest, MissingFileThrowsButCreationIsClean) {
  EXPECT_THROW((void)read_journal(path_), JournalError);
  JournalWriter writer = JournalWriter::open(path_, meta_a());
  writer.close();
  const JournalContents contents = read_journal(path_);
  EXPECT_TRUE(contents.records.empty());
  EXPECT_EQ(contents.meta, meta_a());
}

/// One full journal session through an Io: create, append half, sync,
/// append the rest, sync, close.
void run_session(const std::string& path, fault::Io& io) {
  JournalContents replayed;
  JournalWriter writer = JournalWriter::open(path, meta_a(), &replayed, io);
  const std::vector<JournalRecord> records = sample_records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    writer.append(records[i]);
    if (i == records.size() / 2 || i + 1 == records.size()) writer.sync();
  }
  writer.close();
}

TEST_F(JournalTest, CrashAtEveryInjectionPointLeavesReplayablePrefix) {
  // Counting pass: every syscall the session issues is an injection point.
  fault::FaultPlan counter;
  run_session(path_, counter);
  ASSERT_EQ(read_journal(path_).records, sample_records());

  const fault::Op kOps[] = {fault::Op::kOpen, fault::Op::kWrite,
                            fault::Op::kFsync, fault::Op::kFtruncate,
                            fault::Op::kRename, fault::Op::kClose};
  int crash_points = 0;
  for (const fault::Op op : kOps) {
    for (std::uint64_t nth = 1; nth <= counter.calls(op); ++nth) {
      fs::remove(path_);
      fault::FaultPlan plan;
      plan.add(fault::Fault{.op = op, .nth = nth, .crash = true});
      EXPECT_THROW(run_session(path_, plan), fault::InjectedCrash)
          << to_string(op) << " call " << nth;
      ++crash_points;
      // After the crash the path holds nothing, or a journal that replays
      // cleanly (possibly via torn-tail truncation on reopen) to a prefix.
      if (!fs::exists(path_)) continue;
      JournalContents replayed;
      JournalWriter writer =
          JournalWriter::open(path_, meta_a(), &replayed);
      const std::vector<JournalRecord> expected = sample_records();
      ASSERT_LE(replayed.records.size(), expected.size());
      for (std::size_t i = 0; i < replayed.records.size(); ++i) {
        EXPECT_EQ(replayed.records[i], expected[i])
            << to_string(op) << " call " << nth;
      }
      writer.close();
    }
  }
  EXPECT_GE(crash_points, 10);
}

TEST_F(JournalTest, ShortWritesStillAppendEverything) {
  // Dribble every write out a few bytes at a time: write_all must loop,
  // and the result must be byte-equivalent to the unthrottled session.
  fault::FaultPlan plan;
  plan.add(fault::Fault{.op = fault::Op::kWrite, .nth = 1,
                        .repeat = 1000, .short_bytes = 5});
  run_session(path_, plan);
  EXPECT_EQ(read_journal(path_).records, sample_records());
}

TEST_F(JournalTest, TraceBatchIsOneWriteOfThePerRecordBytes) {
  std::vector<std::string> lines;
  std::vector<JournalWriter::TraceLine> batch;
  for (int i = 0; i < 1000; ++i) {
    lines.push_back("m 11.0." + std::to_string(i / 250) + "." +
                    std::to_string(i % 250) + " 11.1.0.1 d");
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    batch.push_back({i == 7 ? kNoSourceOffset : 40 * i, lines[i]});
  }

  const std::string per_record = (dir_ / "per_record.jnl").string();
  fault::FaultPlan record_plan;
  JournalWriter records = JournalWriter::open(per_record, meta_a(), nullptr,
                                              record_plan);
  const std::uint64_t record_before = record_plan.calls(fault::Op::kWrite);
  for (const JournalWriter::TraceLine& trace : batch) {
    records.append(
        JournalRecord::trace(trace.source_offset, std::string(trace.line)));
  }
  EXPECT_EQ(record_plan.calls(fault::Op::kWrite) - record_before, 1000u);
  records.close();

  fault::FaultPlan batch_plan;
  JournalWriter writer =
      JournalWriter::open(path_, meta_a(), nullptr, batch_plan);
  const std::uint64_t batch_before = batch_plan.calls(fault::Op::kWrite);
  writer.append_traces(batch);
  EXPECT_EQ(batch_plan.calls(fault::Op::kWrite) - batch_before, 1u);
  EXPECT_EQ(writer.size(), records.size());
  writer.close();

  EXPECT_EQ(read_file(path_), read_file(per_record));
  const JournalContents contents = read_journal(path_);
  ASSERT_EQ(contents.records.size(), lines.size());
  EXPECT_EQ(contents.records[7],
            JournalRecord::trace(kNoSourceOffset, lines[7]));
}

TEST_F(JournalTest, EnospcSurfacesAsJournalError) {
  fault::FaultPlan plan;
  plan.add(fault::Fault{.op = fault::Op::kWrite, .nth = 3,
                        .inject_errno = ENOSPC});
  EXPECT_THROW(run_session(path_, plan), JournalError);
  // Whatever landed is still a replayable prefix.
  if (fs::exists(path_)) {
    EXPECT_NO_THROW((void)JournalWriter::open(path_, meta_a()));
  }
}

}  // namespace
}  // namespace mapit::core
