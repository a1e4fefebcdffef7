#include "eval/experiment.h"

namespace mapit::eval {

ExperimentConfig ExperimentConfig::small() {
  ExperimentConfig config;
  config.topology.tier1_count = 4;
  config.topology.transit_count = 30;
  config.topology.stub_count = 150;
  config.topology.rne_customer_count = 20;
  config.simulation.monitor_count = 12;
  config.simulation.destinations_per_prefix = 2;
  return config;
}

ExperimentConfig ExperimentConfig::standard() {
  ExperimentConfig config;
  config.topology.tier1_count = 8;
  config.topology.transit_count = 100;
  config.topology.stub_count = 900;
  config.topology.rne_customer_count = 60;
  config.simulation.monitor_count = 40;
  config.simulation.destinations_per_prefix = 2;
  return config;
}

Experiment::Experiment(const ExperimentConfig& config)
    : config_(config),
      internet_(topo::Generator(config.topology).generate()) {}

std::unique_ptr<Experiment> Experiment::build(const ExperimentConfig& config) {
  // Not make_unique: the constructor is private.
  std::unique_ptr<Experiment> e(new Experiment(config));

  e->orgs_ = e->internet_.export_as2org(config.noise, config.dataset_seed);
  e->rels_ =
      e->internet_.export_relationships(config.noise, config.dataset_seed);
  e->ixps_ = e->internet_.export_ixps(config.noise, config.dataset_seed);
  e->rib_ = e->internet_.export_rib(config.noise, config.dataset_seed);
  e->ip2as_ = std::make_unique<bgp::Ip2As>(
      e->rib_,
      e->internet_.export_fallback(config.noise, config.dataset_seed),
      &e->ixps_);

  e->routing_ =
      std::make_unique<route::AsRouting>(e->internet_.true_relationships());
  e->forwarder_ = std::make_unique<route::Forwarder>(e->internet_, *e->routing_);

  tracesim::TracerouteSimulator simulator(e->internet_, *e->forwarder_,
                                          config.simulation);
  e->raw_ = simulator.run_campaign(&e->sim_stats_);
  e->sanitized_ = trace::sanitize(e->raw_);

  // §4.2: the other-side heuristic sees every address, even those in
  // discarded traces.
  e->graph_ = std::make_unique<graph::InterfaceGraph>(
      e->sanitized_.clean, e->sanitized_.addresses);
  e->evaluator_ = std::make_unique<Evaluator>(e->internet_, *e->graph_);
  return e;
}

core::Result Experiment::run_mapit(const core::Options& options) const {
  return core::run_mapit(*graph_, *ip2as_, orgs_, rels_, options);
}

AsGroundTruth Experiment::ground_truth(asdata::Asn target) const {
  if (target == topo::Generator::rne_asn()) {
    return AsGroundTruth::exact(internet_, target);
  }
  return AsGroundTruth::approximate(internet_, target,
                                    config_.hostname_coverage,
                                    config_.hostname_stale_prob,
                                    config_.dataset_seed);
}

std::array<asdata::Asn, 3> Experiment::evaluation_targets() {
  return {topo::Generator::rne_asn(), topo::Generator::tier1_a(),
          topo::Generator::tier1_b()};
}

}  // namespace mapit::eval
