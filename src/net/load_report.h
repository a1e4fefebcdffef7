// Quarantine accounting for lenient ingestion.
//
// Real traceroute and BGP corpora are dirty: truncated lines, mixed
// formats, transfer damage. Strict loading (the default) throws on the
// first malformed line; lenient loading skips and counts it into a
// LoadReport instead, so one bad line cannot abort a million-line run.
// Loaders take a `LoadReport*`: nullptr selects strict mode, non-null
// selects lenient mode with this object accumulating the damage.
//
// Determinism: offenders are recorded in ascending line order regardless
// of how many threads parsed the file — a lenient parallel load produces
// the same LoadReport as a sequential one (pinned by the lenient-load
// integration tests).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mapit {

class LoadReport {
 public:
  /// A skipped line: its 1-based line number, the byte offset where the
  /// line starts in the input stream, and the parse error. The offset is
  /// structured (not just embedded in the error text) so tools holding the
  /// raw bytes — delta tailers, fuzzer triage — can seek straight to the
  /// offender.
  struct Offender {
    std::size_t line_no = 0;
    std::size_t byte_offset = 0;
    std::string error;
  };

  /// Offender details kept (beyond this, lines are only counted).
  static constexpr std::size_t kMaxDetailed = 10;

  /// Records one skipped line. Must be called in ascending line order.
  void record(std::size_t line_no, std::size_t byte_offset, std::string error);

  /// Counts `n` more skipped lines without their details. Only for lines
  /// that follow kMaxDetailed recorded ones, which are all the report keeps.
  void add_skipped(std::size_t n) { skipped_ += n; }

  /// Lines skipped in total (detailed or not).
  [[nodiscard]] std::size_t skipped() const { return skipped_; }

  /// Lines successfully loaded (maintained by the loader).
  [[nodiscard]] std::size_t loaded() const { return loaded_; }
  void add_loaded(std::size_t n) { loaded_ += n; }

  /// The first kMaxDetailed offenders, ascending by line number.
  [[nodiscard]] const std::vector<Offender>& offenders() const {
    return offenders_;
  }

  /// Human-readable summary for stderr, e.g.
  ///   "traces: skipped 3 of 120 malformed lines
  ///      line 7 (byte 212): trace line 7: bad destination 'x'
  ///      ..."
  /// Empty string when nothing was skipped.
  [[nodiscard]] std::string summary(const std::string& what) const;

 private:
  std::size_t skipped_ = 0;
  std::size_t loaded_ = 0;
  std::vector<Offender> offenders_;
};

}  // namespace mapit
