#include "ingest/pipeline.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "net/error.h"
#include "trace/trace_io.h"

namespace mapit::ingest {

namespace {

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) throw Error("cannot open " + path);
  return stream;
}

/// Merges `addition` (sorted unique) into `base` (sorted unique) in place.
void merge_sorted_unique(std::vector<net::Ipv4Address>& base,
                         const std::vector<net::Ipv4Address>& addition) {
  const std::size_t old_size = base.size();
  base.insert(base.end(), addition.begin(), addition.end());
  std::inplace_merge(base.begin(),
                     base.begin() + static_cast<std::ptrdiff_t>(old_size),
                     base.end());
  base.erase(std::unique(base.begin(), base.end()), base.end());
}

}  // namespace

IngestPipeline::IngestPipeline(const IngestSetup& setup)
    : options_(setup.options) {
  {
    auto stream = open_or_throw(setup.traces_path);
    trace::TraceCorpus corpus = trace::read_corpus(
        stream, options_.threads, setup.lenient ? &trace_report_ : nullptr);
    base_traces_ = corpus.size();
    trace::SanitizeResult sanitized =
        trace::sanitize(std::move(corpus), options_.threads);
    all_addresses_ = std::move(sanitized.addresses);
    graph_ = std::make_unique<graph::InterfaceGraph>(
        sanitized.clean, all_addresses_, options_.threads);
  }
  {
    auto stream = open_or_throw(setup.rib_path);
    rib_ = bgp::Rib::read(stream, setup.lenient ? &rib_report_ : nullptr);
  }
  if (!setup.relationships_path.empty()) {
    auto stream = open_or_throw(setup.relationships_path);
    rels_ = asdata::AsRelationships::read(stream);
  }
  if (!setup.as2org_path.empty()) {
    auto stream = open_or_throw(setup.as2org_path);
    orgs_ = asdata::As2Org::read(stream);
  }
  if (!setup.ixps_path.empty()) {
    auto stream = open_or_throw(setup.ixps_path);
    ixps_ = asdata::IxpRegistry::read(stream);
  }
  ip2as_ = std::make_unique<bgp::Ip2As>(rib_, net::PrefixTrie<asdata::Asn>{},
                                        &ixps_);

  // Identity of the base run, fingerprinted exactly like the checkpoint
  // family (same presence markers for optional datasets), so a journal is
  // rejected the moment any base input byte changed underneath it.
  meta_.config_hash = core::config_hash(options_);
  meta_.corpus_fingerprint = core::fingerprint_file(setup.traces_path);
  meta_.rib_fingerprint = core::fingerprint_file(setup.rib_path);
  std::uint64_t datasets = core::kFingerprintSeed;
  for (const std::string& optional_path :
       {setup.relationships_path, setup.as2org_path, setup.ixps_path}) {
    datasets =
        core::fingerprint_bytes(datasets, optional_path.empty() ? "-" : "+");
    if (!optional_path.empty()) {
      datasets = core::fingerprint_file(optional_path, datasets);
    }
  }
  meta_.datasets_fingerprint = datasets;
}

void IngestPipeline::fold(const trace::TraceCorpus& raw_delta) {
  if (raw_delta.empty()) return;
  delta_traces_ += raw_delta.size();
  const trace::SanitizeResult sanitized =
      trace::sanitize(raw_delta, options_.threads);
  // The witness population takes every raw delta address: the other-side
  // heuristic must see the traces and hops the sanitizer discarded.
  merge_sorted_unique(all_addresses_, sanitized.addresses);
  graph_->fold(sanitized.clean, all_addresses_, options_.threads);
}

core::Result IngestPipeline::run() const {
  return core::run_mapit(*graph_, *ip2as_, orgs_, rels_, options_);
}

store::WriteInfo IngestPipeline::publish(const std::string& path,
                                         fault::Io& io) {
  const core::Result result = run();
  const store::SnapshotData data =
      store::make_snapshot_data(result, *graph_, *ip2as_);
  return store::write_snapshot_file(data, path, io);
}

std::string IngestPipeline::serialize() const {
  const core::Result result = run();
  return store::serialize_snapshot(
      store::make_snapshot_data(result, *graph_, *ip2as_));
}

}  // namespace mapit::ingest
