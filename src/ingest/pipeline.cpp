#include "ingest/pipeline.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "net/ipv4.h"
#include "trace/sanitize.h"

namespace mapit::ingest {

namespace {

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

core::InputPaths input_paths(const IngestSetup& setup) {
  return {setup.traces_path, setup.rib_path, setup.relationships_path,
          setup.as2org_path, setup.ixps_path};
}

}  // namespace

IngestPipeline::IngestPipeline(const IngestSetup& setup)
    : options_(setup.options),
      base_(core::RunInputs::load(input_paths(setup), options_.threads,
                                  setup.lenient)),
      meta_(core::input_meta(input_paths(setup), options_)) {}

void IngestPipeline::fold(trace::TraceCorpus raw_delta) {
  if (raw_delta.empty()) return;
  delta_traces_ += raw_delta.size();
  const unsigned threads = parallel::resolve_threads(options_.threads);
  if (threads > 1 && !fold_pool_) {
    fold_pool_ = std::make_unique<parallel::ThreadPool>(threads);
  }
  const trace::SanitizeResult sanitized =
      trace::sanitize(std::move(raw_delta), fold_pool_.get());
  // The witness population takes every raw delta address: the other-side
  // heuristic must see the traces and hops the sanitizer discarded.
  graph::LoadedGraph& corpus = base_->corpus;
  merge_sorted_unique(corpus.addresses, sanitized.addresses);
  corpus.graph.fold(sanitized.clean, corpus.addresses, fold_pool_.get());
}

core::Result IngestPipeline::run() {
  if (!engine_) {
    engine_ = std::make_unique<core::Engine>(base_->corpus.graph, base_->ip2as,
                                             base_->orgs, base_->rels,
                                             options_);
  }
  return engine_->run();
}

store::WriteInfo IngestPipeline::publish(const std::string& path,
                                         fault::Io& io) {
  const core::Result result = run();
  const store::SnapshotData data =
      store::make_snapshot_data(result, base_->corpus.graph, base_->ip2as);
  return store::write_snapshot_file(data, path, io);
}

std::string IngestPipeline::serialize() {
  const core::Result result = run();
  return store::serialize_snapshot(
      store::make_snapshot_data(result, base_->corpus.graph, base_->ip2as));
}

}  // namespace mapit::ingest
