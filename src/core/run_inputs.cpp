#include "core/run_inputs.h"

#include <fstream>

#include "net/error.h"

namespace mapit::core {

namespace {

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) throw Error("cannot open " + path);
  return stream;
}

/// The dataset at `path`, or an empty one when the path is absent.
template <typename Dataset>
Dataset read_optional(const std::string& path) {
  if (path.empty()) return Dataset{};
  auto stream = open_or_throw(path);
  return Dataset::read(stream);
}

}  // namespace

std::unique_ptr<RunInputs> RunInputs::load(const InputPaths& paths,
                                           unsigned threads, bool lenient) {
  return std::unique_ptr<RunInputs>(new RunInputs(paths, threads, lenient));
}

RunInputs::RunInputs(const InputPaths& paths, unsigned threads, bool lenient)
    : corpus([&] {
        auto stream = open_or_throw(paths.traces);
        return graph::read_graph(stream, threads,
                                 lenient ? &trace_report : nullptr);
      }()),
      rib([&] {
        auto stream = open_or_throw(paths.rib);
        return bgp::Rib::read(stream, lenient ? &rib_report : nullptr);
      }()),
      rels(read_optional<asdata::AsRelationships>(paths.relationships)),
      orgs(read_optional<asdata::As2Org>(paths.as2org)),
      ixps(read_optional<asdata::IxpRegistry>(paths.ixps)),
      ip2as(rib, net::PrefixTrie<asdata::Asn>{}, &ixps) {}

Result RunInputs::run(const Options& options) const {
  return run_mapit(corpus.graph, ip2as, orgs, rels, options);
}

CheckpointMeta input_meta(const InputPaths& paths, const Options& options) {
  CheckpointMeta meta;
  meta.config_hash = config_hash(options);
  meta.corpus_fingerprint = fingerprint_file(paths.traces);
  meta.rib_fingerprint = fingerprint_file(paths.rib);
  std::uint64_t datasets = kFingerprintSeed;
  for (const std::string* path :
       {&paths.relationships, &paths.as2org, &paths.ixps}) {
    datasets = fingerprint_bytes(datasets, path->empty() ? "-" : "+");
    if (!path->empty()) datasets = fingerprint_file(*path, datasets);
  }
  meta.datasets_fingerprint = datasets;
  return meta;
}

}  // namespace mapit::core
