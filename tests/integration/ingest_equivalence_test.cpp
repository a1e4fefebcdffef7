// The streaming-ingestion signature property: folding deltas D over base B
// — in ANY batch partitioning, with ANY thread count — publishes a snapshot
// byte-identical to a cold batch run over the concatenated corpus B+D.
// Plus the crash half of the contract: run_ingest killed at any injected
// syscall (journal append, fsync, snapshot write, rename, ...) resumes
// from the journal into exactly the same bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/journal.h"
#include "fault/plan.h"
#include "ingest/pipeline.h"
#include "ingest/runner.h"
#include "trace/trace_io.h"

namespace mapit {
namespace {

namespace fs = std::filesystem;

// A hand-sized internet: three ASes, a handful of inter-AS links, enough
// traces that several batch splits are distinguishable. Cheap enough that
// the crash matrix can afford an engine run per injection point. Public
// address space: special-purpose ranges (10/8 included) never enter a
// neighbour set, and a graph without records would make every "equals
// cold" check below vacuous.
constexpr const char* kRib =
    "rc0|11.1.0.0/16|100\n"
    "rc0|11.2.0.0/16|200\n"
    "rc0|11.3.0.0/16|300\n";

std::vector<std::string> corpus_lines() {
  std::vector<std::string> lines;
  // Forward and reverse crossings of the 100-200 and 200-300 borders from
  // a few monitors, with some intra-AS churn so halves see traffic.
  for (int i = 0; i < 6; ++i) {
    const std::string a = std::to_string(2 + i);
    lines.push_back("0|11.2.0." + a + "|11.1.0.1@1 11.1.0." + a +
                    "@2 11.2.0.1@3 11.2.0." + a + "@4");
    lines.push_back("1|11.3.0." + a + "|11.2.0.1@1 11.2.0." + a +
                    "@2 11.3.0.1@3 11.3.0." + a + "@4");
    lines.push_back("2|11.1.0." + a + "|11.3.0.1@1 11.3.0." + a +
                    "@2 11.2.0.1@3 11.2.0." + a + "@4 11.1.0.1@5 11.1.0." +
                    a + "@6");
  }
  for (int i = 0; i < 6; ++i) {
    const std::string a = std::to_string(20 + i);
    lines.push_back("0|11.3.0." + a + "|11.1.0.1@1 11.1.0." + a +
                    "@2 11.2.0.40@3 11.3.0.1@4 11.3.0." + a + "@5");
    lines.push_back("1|11.1.0." + a + "|11.2.0.40@1 11.2.0." + a +
                    "@2 11.1.0.1@3 11.1.0." + a + "@4");
  }
  return lines;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << "\n";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

trace::TraceCorpus parse_lines(const std::vector<std::string>& lines,
                               std::size_t begin, std::size_t end) {
  trace::TraceCorpus corpus;
  for (std::size_t i = begin; i < end && i < lines.size(); ++i) {
    corpus.add(trace::parse_trace(lines[i], "test"));
  }
  return corpus;
}

class IngestEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("mapit_ingest_eq_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    lines_ = corpus_lines();
    rib_path_ = (dir_ / "rib.txt").string();
    std::ofstream rib(rib_path_);
    rib << kRib;
    full_path_ = (dir_ / "full.txt").string();
    write_lines(full_path_, lines_);
    base_count_ = lines_.size() / 2;
    base_path_ = (dir_ / "base.txt").string();
    write_lines(base_path_, std::vector<std::string>(
                                lines_.begin(),
                                lines_.begin() +
                                    static_cast<std::ptrdiff_t>(base_count_)));
  }
  void TearDown() override { fs::remove_all(dir_); }

  ingest::IngestSetup setup(const std::string& traces_path,
                            unsigned threads) const {
    ingest::IngestSetup setup;
    setup.traces_path = traces_path;
    setup.rib_path = rib_path_;
    setup.options.threads = threads;
    return setup;
  }

  /// Cold reference: one pipeline over the full corpus, no folds. Guarded
  /// against vacuity: the cold graph has records, and the base-only
  /// snapshot differs from it, so matching it proves the deltas landed.
  std::string cold_bytes(unsigned threads) const {
    ingest::IngestPipeline pipeline(setup(full_path_, threads));
    EXPECT_GT(pipeline.interfaces(), 0u);
    std::string cold = pipeline.serialize();
    EXPECT_NE(cold,
              ingest::IngestPipeline(setup(base_path_, threads)).serialize());
    return cold;
  }

  fs::path dir_;
  std::vector<std::string> lines_;
  std::string rib_path_;
  std::string full_path_;
  std::string base_path_;
  std::size_t base_count_ = 0;
};

TEST_F(IngestEquivalenceTest, AnyBatchSplitAnyThreadCountMatchesCold) {
  const std::string cold = cold_bytes(1);
  ASSERT_FALSE(cold.empty());
  const std::size_t delta = lines_.size() - base_count_;

  // Split vectors: batch sizes that partition the delta. One batch, two
  // uneven batches, three batches, and fully line-by-line.
  const std::vector<std::vector<std::size_t>> splits = {
      {delta},
      {delta / 3, delta - delta / 3},
      {delta / 3, delta / 3, delta - 2 * (delta / 3)},
      std::vector<std::size_t>(delta, 1),
  };
  for (const unsigned threads : {1u, 2u, 8u}) {
    EXPECT_EQ(cold_bytes(threads), cold) << "cold threads=" << threads;
    for (std::size_t s = 0; s < splits.size(); ++s) {
      ingest::IngestPipeline pipeline(setup(base_path_, threads));
      std::size_t at = base_count_;
      for (const std::size_t size : splits[s]) {
        pipeline.fold(parse_lines(lines_, at, at + size));
        at += size;
      }
      ASSERT_EQ(at, lines_.size());
      EXPECT_EQ(pipeline.serialize(), cold)
          << "threads=" << threads << " split=" << s;
      EXPECT_EQ(pipeline.delta_traces(), delta);
    }
  }
}

TEST_F(IngestEquivalenceTest, RunIngestDrainPublishesColdBytes) {
  const std::string cold = cold_bytes(1);
  const std::string follow = (dir_ / "delta_follow.txt").string();
  write_lines(follow, std::vector<std::string>(
                          lines_.begin() +
                              static_cast<std::ptrdiff_t>(base_count_),
                          lines_.end()));

  ingest::IngestOptions options;
  options.base.traces_path = base_path_;
  options.base.rib_path = rib_path_;
  options.base.options.threads = 1;
  options.journal_path = (dir_ / "delta.jnl").string();
  options.out_path = (dir_ / "live.snap").string();
  options.follow_path = follow;
  options.drain = true;
  const ingest::IngestStats stats = ingest::run_ingest(options);
  EXPECT_EQ(stats.folded_traces, lines_.size() - base_count_);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(read_file(options.out_path), cold);

  // Re-running over the same journal is idempotent: full replay, zero new
  // lines, identical bytes.
  const ingest::IngestStats again = ingest::run_ingest(options);
  EXPECT_EQ(again.replayed_traces, stats.folded_traces);
  EXPECT_EQ(read_file(options.out_path), cold);
}

TEST_F(IngestEquivalenceTest, KillMidJournalResumesToColdBytes) {
  const std::string cold = cold_bytes(1);
  const std::string follow = (dir_ / "delta_follow.txt").string();
  const auto delta_lines = std::vector<std::string>(
      lines_.begin() + static_cast<std::ptrdiff_t>(base_count_),
      lines_.end());

  // Grow the follow file in three stages with a drain run after each, so
  // the journal accumulates multiple commit records at staged offsets.
  ingest::IngestOptions options;
  options.base.traces_path = base_path_;
  options.base.rib_path = rib_path_;
  options.base.options.threads = 1;
  options.journal_path = (dir_ / "delta.jnl").string();
  options.out_path = (dir_ / "live.snap").string();
  options.follow_path = follow;
  options.drain = true;
  const std::size_t third = delta_lines.size() / 3;
  write_lines(follow, std::vector<std::string>(delta_lines.begin(),
                                               delta_lines.begin() +
                                                   static_cast<std::ptrdiff_t>(
                                                       third)));
  (void)ingest::run_ingest(options);
  write_lines(follow, std::vector<std::string>(delta_lines.begin(),
                                               delta_lines.begin() +
                                                   static_cast<std::ptrdiff_t>(
                                                       2 * third)));
  (void)ingest::run_ingest(options);
  write_lines(follow, delta_lines);
  (void)ingest::run_ingest(options);
  ASSERT_EQ(read_file(options.out_path), cold);
  const std::string journal_bytes = read_file(options.journal_path);

  // Kill simulation: chop the journal at assorted byte lengths (torn tail,
  // lost commits, lost whole batches), delete the snapshot, re-ingest.
  // Every cut must resume to the cold bytes — the surviving journal prefix
  // plus the follow-file tail always reconstructs B+D exactly.
  for (const std::size_t cut :
       {std::size_t{1}, std::size_t{7}, std::size_t{40}, std::size_t{100},
        journal_bytes.size() - core::kJournalHeaderSize - 1,
        journal_bytes.size() - core::kJournalHeaderSize}) {
    std::ofstream out(options.journal_path,
                      std::ios::binary | std::ios::trunc);
    out << journal_bytes.substr(0, journal_bytes.size() - cut);
    out.close();
    fs::remove(options.out_path);
    const ingest::IngestStats stats = ingest::run_ingest(options);
    EXPECT_EQ(read_file(options.out_path), cold) << "cut " << cut;
    EXPECT_EQ(stats.folded_traces, delta_lines.size()) << "cut " << cut;
  }
}

TEST_F(IngestEquivalenceTest, CrashAtEveryInjectedSyscallThenResume) {
  const std::string cold = cold_bytes(1);
  const std::string follow = (dir_ / "delta_follow.txt").string();
  write_lines(follow, std::vector<std::string>(
                          lines_.begin() +
                              static_cast<std::ptrdiff_t>(base_count_),
                          lines_.end()));

  ingest::IngestOptions options;
  options.base.traces_path = base_path_;
  options.base.rib_path = rib_path_;
  options.base.options.threads = 1;
  options.journal_path = (dir_ / "delta.jnl").string();
  options.out_path = (dir_ / "live.snap").string();
  options.follow_path = follow;
  options.drain = true;

  // Counting pass: every syscall of a clean drain session is an injection
  // point for the crash matrix.
  fault::FaultPlan counter;
  options.io = &counter;
  (void)ingest::run_ingest(options);
  ASSERT_EQ(read_file(options.out_path), cold);

  const fault::Op kOps[] = {fault::Op::kOpen,  fault::Op::kWrite,
                            fault::Op::kFsync, fault::Op::kFtruncate,
                            fault::Op::kRename};
  int crash_points = 0;
  for (const fault::Op op : kOps) {
    const std::uint64_t total = counter.calls(op);
    // Full matrix for the rare ops; stride the frequent ones so the test
    // stays inside the integration budget.
    const std::uint64_t stride = total > 24 ? total / 12 : 1;
    for (std::uint64_t nth = 1; nth <= total; nth += stride) {
      fs::remove(options.journal_path);
      fs::remove(options.out_path);
      fault::FaultPlan plan;
      plan.add(fault::Fault{.op = op, .nth = nth, .crash = true});
      options.io = &plan;
      EXPECT_THROW((void)ingest::run_ingest(options), fault::InjectedCrash)
          << to_string(op) << " call " << nth;
      ++crash_points;
      // Recovery: a clean rerun resumes from whatever survived and must
      // land on the cold bytes.
      options.io = nullptr;
      const ingest::IngestStats stats = ingest::run_ingest(options);
      EXPECT_EQ(read_file(options.out_path), cold)
          << to_string(op) << " call " << nth;
      EXPECT_EQ(stats.folded_traces, lines_.size() - base_count_)
          << to_string(op) << " call " << nth;
    }
  }
  EXPECT_GE(crash_points, 12);
}

// The journal stage writes one batch's trace records in a single write, so
// a session's write count does not grow with the lines in its batch.
TEST_F(IngestEquivalenceTest, JournalWritesABatchInOneWrite) {
  const std::vector<std::string> delta(
      lines_.begin() + static_cast<std::ptrdiff_t>(base_count_),
      lines_.end());
  const auto drain_writes = [&](std::size_t count) {
    std::vector<std::string> follow_lines;
    while (follow_lines.size() < count) {
      follow_lines.push_back(delta[follow_lines.size() % delta.size()]);
    }
    const std::string follow = (dir_ / "delta_follow.txt").string();
    write_lines(follow, follow_lines);
    fs::remove(dir_ / "delta.jnl");
    ingest::IngestOptions options;
    options.base.traces_path = base_path_;
    options.base.rib_path = rib_path_;
    options.base.options.threads = 1;
    options.journal_path = (dir_ / "delta.jnl").string();
    options.out_path = (dir_ / "live.snap").string();
    options.follow_path = follow;
    options.drain = true;
    options.batch_lines = 1000;
    fault::FaultPlan counter;
    options.io = &counter;
    const ingest::IngestStats stats = ingest::run_ingest(options);
    EXPECT_EQ(stats.batches, 1u) << count << " lines";
    EXPECT_EQ(stats.folded_traces, count);
    return counter.calls(fault::Op::kWrite);
  };
  EXPECT_EQ(drain_writes(1000), drain_writes(2));
}

TEST_F(IngestEquivalenceTest, LenientQuarantinesDeltaGarbageStrictThrows) {
  const std::string cold = cold_bytes(1);
  std::vector<std::string> delta_lines(
      lines_.begin() + static_cast<std::ptrdiff_t>(base_count_),
      lines_.end());
  delta_lines.insert(delta_lines.begin() + 2, "this is not a trace");
  delta_lines.push_back("0|not-an-address|junk");
  const std::string follow = (dir_ / "delta_follow.txt").string();
  write_lines(follow, delta_lines);

  ingest::IngestOptions options;
  options.base.traces_path = base_path_;
  options.base.rib_path = rib_path_;
  options.base.options.threads = 1;
  options.journal_path = (dir_ / "delta.jnl").string();
  options.out_path = (dir_ / "live.snap").string();
  options.follow_path = follow;
  options.drain = true;

  EXPECT_THROW((void)ingest::run_ingest(options), Error);

  fs::remove(options.journal_path);
  options.base.lenient = true;
  std::ostringstream log;
  options.log = &log;
  const ingest::IngestStats stats = ingest::run_ingest(options);
  EXPECT_EQ(stats.quarantined, 2u);
  EXPECT_EQ(stats.folded_traces, lines_.size() - base_count_);
  // Quarantined garbage must not perturb the published bytes.
  EXPECT_EQ(read_file(options.out_path), cold);
  EXPECT_NE(log.str().find("skipped 2"), std::string::npos);
}

// A lenient ingest reports the malformed base lines it dropped, with the
// summary `mapit run` prints, and they do not perturb the published bytes.
TEST_F(IngestEquivalenceTest, LenientBaseQuarantineIsLoggedLikeRun) {
  std::vector<std::string> base(
      lines_.begin(),
      lines_.begin() + static_cast<std::ptrdiff_t>(base_count_));
  base.insert(base.begin() + 1, "0|11.2.0.999|11.1.0.1@1 11.2.0.1@2");
  ingest::IngestOptions options;
  options.base.traces_path = (dir_ / "dirty_base.txt").string();
  write_lines(options.base.traces_path, base);
  options.base.rib_path = (dir_ / "dirty_rib.txt").string();
  {
    std::ofstream rib(options.base.rib_path);
    rib << kRib << "rc0|not-a-prefix|100\n";
  }
  options.base.options.threads = 1;
  options.journal_path = (dir_ / "delta.jnl").string();
  options.out_path = (dir_ / "live.snap").string();
  options.drain = true;
  options.base.lenient = true;
  std::ostringstream log;
  options.log = &log;

  const ingest::IngestStats stats = ingest::run_ingest(options);
  EXPECT_EQ(stats.quarantined, 0u);  // counts delta lines only
  EXPECT_NE(log.str().find("traces: skipped 1 of " +
                           std::to_string(base_count_ + 1) +
                           " lines as malformed\n"),
            std::string::npos)
      << log.str();
  EXPECT_NE(log.str().find("rib: skipped 1 of "), std::string::npos)
      << log.str();
  EXPECT_EQ(read_file(options.out_path),
            ingest::IngestPipeline(setup(base_path_, 1)).serialize());
}

}  // namespace
}  // namespace mapit
