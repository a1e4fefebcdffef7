// The base inputs of a MAP-IT run, loaded once: the trace corpus streamed
// into its interface graph, the RIB, the optional AS datasets and the
// IP2AS composite over them. `mapit run`, `snapshot` and `paths` and the
// ingest pipeline all load through RunInputs, and input_meta() is the one
// definition of the run identity that checkpoints and delta journals
// record.
#pragma once

#include <memory>
#include <string>

#include "asdata/as2org.h"
#include "asdata/ixp.h"
#include "asdata/relationships.h"
#include "bgp/ip2as.h"
#include "bgp/rib.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "graph/interface_graph.h"
#include "net/load_report.h"

namespace mapit::core {

/// Where a run's base inputs live, in the library's text formats. The
/// traces and the RIB are required; an empty dataset path means "absent".
struct InputPaths {
  std::string traces;
  std::string rib;
  std::string relationships;
  std::string as2org;
  std::string ixps;
};

class RunInputs {
 public:
  /// Loads every input named by `paths`, the traces on `threads` workers
  /// (0 = one per hardware thread). Strict mode throws ParseError at the
  /// first malformed trace or RIB line; `lenient` quarantines such lines
  /// into trace_report / rib_report instead. Throws mapit::Error when a
  /// file cannot be opened.
  [[nodiscard]] static std::unique_ptr<RunInputs> load(
      const InputPaths& paths, unsigned threads, bool lenient);

  RunInputs(const RunInputs&) = delete;
  RunInputs& operator=(const RunInputs&) = delete;

  /// Runs the engine over these inputs.
  [[nodiscard]] Result run(const Options& options) const;

  LoadReport trace_report;  ///< lenient trace quarantine (empty if strict)
  LoadReport rib_report;    ///< lenient RIB quarantine (empty if strict)
  /// What graph::read_graph returned: the interface graph, the
  /// SanitizeStats and the raw address population.
  graph::LoadedGraph corpus;
  bgp::Rib rib;
  asdata::AsRelationships rels;
  asdata::As2Org orgs;
  asdata::IxpRegistry ixps;
  /// Points at `ixps`, which is why a RunInputs never moves.
  bgp::Ip2As ip2as;

 private:
  RunInputs(const InputPaths& paths, unsigned threads, bool lenient);
};

/// The identity a checkpoint or delta journal records for a run over
/// `paths` with `options`: the config hash, FNV-1a fingerprints of the
/// corpus and RIB bytes, and one digest over the datasets in slot order
/// (relationships, as2org, ixps), each slot preceded by a presence marker
/// so an absent dataset, an empty file and the same bytes in another slot
/// all differ. Reads every input file in full, so call it only where a
/// checkpoint or journal needs it. Throws mapit::Error when a file cannot
/// be read.
[[nodiscard]] CheckpointMeta input_meta(const InputPaths& paths,
                                        const Options& options);

}  // namespace mapit::core
