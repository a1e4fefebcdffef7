// Input generation: the synthetic Internet and traceroute campaigns of
// eval::Experiment, written as the text files the system loads. Seeds are
// derived from the workload seed exactly as `mapit simulate --seed` derives
// them, so a seed names the same Internet here and there.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "eval/experiment.h"
#include "route/as_routing.h"
#include "route/forwarder.h"
#include "trace/trace_io.h"
#include "tracesim/simulator.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

namespace {

template <typename Dataset>
void write_dataset(const std::filesystem::path& path, const Dataset& dataset) {
  std::ofstream out(path);
  dataset.write(out);
  if (!out.flush()) throw std::runtime_error("cannot write " + path.string());
}

}  // namespace

int generate(const Args& args) {
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::filesystem::path dir = args.get("out");
  const std::uint64_t delta_traces = args.get_u64("delta-traces", 0);

  mapit::eval::ExperimentConfig config =
      mapit::eval::ExperimentConfig::standard();
  config.simulation.monitor_count =
      static_cast<int>(args.get_u64("monitors", 40));
  config.topology.seed = seed;
  config.simulation.seed = seed ^ 0xFEEDu;
  config.dataset_seed = seed ^ 0xBEEFu;
  const auto experiment = mapit::eval::Experiment::build(config);

  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir / "traces.txt");
    mapit::trace::write_corpus(out, experiment->raw_corpus());
    if (!out.flush()) throw std::runtime_error("cannot write traces.txt");
  }
  write_dataset(dir / "rib.txt", experiment->internet().export_rib(
                                     config.noise, config.dataset_seed));
  write_dataset(dir / "relationships.txt", experiment->relationships());
  write_dataset(dir / "as2org.txt", experiment->orgs());
  write_dataset(dir / "ixps.txt", experiment->ixps());
  std::cerr << "generated " << experiment->raw_corpus().size()
            << " traces in " << dir.string() << "\n";

  if (delta_traces == 0) return 0;
  // Deltas: further campaigns over the same Internet, each with its own
  // simulator seed (new monitor placement and destination samples).
  const mapit::route::AsRouting routing(
      experiment->internet().true_relationships());
  const mapit::route::Forwarder forwarder(experiment->internet(), routing);
  std::ofstream out(dir / "deltas.txt");
  std::uint64_t written = 0;
  for (std::uint64_t campaign = 1; written < delta_traces; ++campaign) {
    mapit::tracesim::SimulatorConfig simulation = config.simulation;
    simulation.monitor_count = 40;
    simulation.seed = config.simulation.seed + campaign * 0x9E3779B9u;
    const mapit::tracesim::TracerouteSimulator simulator(
        experiment->internet(), forwarder, simulation);
    const mapit::trace::TraceCorpus corpus = simulator.run_campaign();
    for (const mapit::trace::Trace& trace : corpus.traces()) {
      if (written == delta_traces) break;
      out << mapit::trace::format_trace(trace) << '\n';
      ++written;
    }
  }
  if (!out.flush()) throw std::runtime_error("cannot write deltas.txt");
  std::cerr << "generated " << written << " delta traces\n";
  return 0;
}

}  // namespace perfbench
