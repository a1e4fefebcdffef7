// cold_snapshot: `mapit snapshot --threads 2` from the text inputs to a
// renamed-into-place snapshot, with the page cache warm. The traced run
// replays the same public calls in process, one span each.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "asdata/as2org.h"
#include "asdata/ixp.h"
#include "asdata/relationships.h"
#include "bgp/ip2as.h"
#include "bgp/rib.h"
#include "core/engine.h"
#include "graph/interface_graph.h"
#include "trace/sanitize.h"
#include "trace/trace_io.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {

namespace {

std::ifstream open_input(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) throw std::runtime_error("cannot open " + path);
  return stream;
}

/// The "crc32 xxxxxxxx" field of `mapit snapshot`'s summary line.
std::string printed_crc(const std::string& stdout_path) {
  const std::string text = read_file(stdout_path);
  const std::size_t at = text.find("crc32 ");
  return at == std::string::npos ? "" : text.substr(at + 6, 8);
}

/// Trace lines of a corpus file (comments and blank lines excluded).
std::uint64_t count_traces(const std::string& corpus) {
  std::uint64_t count = 0;
  for (std::size_t at = 0; at < corpus.size();) {
    std::size_t end = corpus.find('\n', at);
    if (end == std::string::npos) end = corpus.size();
    if (end > at && corpus[at] != '#') ++count;
    at = end + 1;
  }
  return count;
}

std::string hex(std::uint32_t value) {
  char buffer[9];
  std::snprintf(buffer, sizeof(buffer), "%08x", value);
  return buffer;
}

}  // namespace

std::vector<std::string> snapshot_command(const std::string& mapit,
                                          const InputFiles& inputs,
                                          const std::string& traces,
                                          const std::string& out) {
  return {mapit,           "snapshot",
          "--threads",     std::to_string(kThreads),
          "--traces",      traces,
          "--rib",         inputs.rib,
          "--relationships", inputs.relationships,
          "--as2org",      inputs.as2org,
          "--ixps",        inputs.ixps,
          "--out",         out};
}

mapit::store::WriteInfo snapshot_in_process(const InputFiles& inputs,
                                            const std::string& traces,
                                            const std::string& out,
                                            std::uint32_t run) {
  using namespace mapit;
  // Same calls, same order as the CLI's build_run_pipeline + cmd_snapshot.
  core::Options options;
  options.threads = kThreads;
  trace::TraceCorpus corpus;
  {
    auto stream = open_input(traces);
    const Span span("trace.read_corpus", run);
    corpus = trace::read_corpus(stream, options.threads);
  }
  bgp::Rib rib;
  {
    auto stream = open_input(inputs.rib);
    const Span span("bgp.load", run);
    rib = bgp::Rib::read(stream);
  }
  asdata::AsRelationships rels;
  asdata::As2Org orgs;
  asdata::IxpRegistry ixps;
  {
    auto rels_stream = open_input(inputs.relationships);
    auto orgs_stream = open_input(inputs.as2org);
    auto ixps_stream = open_input(inputs.ixps);
    const Span span("asdata.load", run);
    rels = asdata::AsRelationships::read(rels_stream);
    orgs = asdata::As2Org::read(orgs_stream);
    ixps = asdata::IxpRegistry::read(ixps_stream);
  }
  trace::SanitizeResult sanitized;
  {
    const Span span("trace.sanitize", run);
    sanitized = trace::sanitize(corpus, options.threads);
  }
  std::vector<net::Ipv4Address> all_addresses;
  {
    const Span span("trace.distinct_addresses", run);
    all_addresses = corpus.distinct_addresses();
  }
  std::unique_ptr<graph::InterfaceGraph> graph;
  {
    const Span span("graph.build", run);
    graph = std::make_unique<graph::InterfaceGraph>(
        sanitized.clean, all_addresses, options.threads);
  }
  std::unique_ptr<bgp::Ip2As> ip2as;
  {
    const Span span("bgp.load", run);
    ip2as = std::make_unique<bgp::Ip2As>(rib, net::PrefixTrie<asdata::Asn>{},
                                         &ixps);
  }
  core::Result result;
  {
    const Span span("core.engine", run);
    result = core::run_mapit(*graph, *ip2as, orgs, rels, options);
  }
  counter("core.engine.iterations", run, result.stats.iterations);
  store::SnapshotData data;
  {
    const Span span("store.make_snapshot_data", run);
    data = store::make_snapshot_data(result, *graph, *ip2as);
  }
  const Span span("store.write_snapshot_file", run);
  return store::write_snapshot_file(data, out);
}

int run_cold(const Args& args) {
  const InputFiles inputs(args.get("inputs"));
  const std::string mapit = args.get("mapit");
  const std::string work = args.get("work");
  // One repetition per second of the run at the baseline speed (~1 s per
  // snapshot). The count does not depend on how fast the program is, so a
  // change and its parent are compared on the same statistics.
  const std::uint32_t repetitions =
      static_cast<std::uint32_t>(std::max<std::uint64_t>(3, args.get_u64("seconds", 10)));
  const std::string out = work + "/cold.snap";
  const std::string stdout_path = work + "/cold.out";
  const std::vector<std::string> command =
      snapshot_command(mapit, inputs, inputs.traces, out);
  Result result;

  // Page cache warm-up, outside every timed region.
  std::uint64_t traces = 0;
  for (const std::string& path : {inputs.traces, inputs.rib,
                                  inputs.relationships, inputs.as2org,
                                  inputs.ixps}) {
    const std::string bytes = read_file(path);
    if (path == inputs.traces) traces = count_traces(bytes);
  }

  // Set-up: the CLI's start-up, exec of `mapit help` to exit. Repeated;
  // median reported.
  std::vector<double> setups;
  for (int i = 0; i < 51; ++i) {
    const ChildRun help = run_child({mapit, "help"}, work + "/help.out");
    if (help.exit_code != 0) throw std::runtime_error("mapit help failed");
    setups.push_back(help.wall_ms / 1e3);
  }
  result.metric("setup_s", median(setups), "s");

  // Warm-up run: page cache, and the CRC every later repetition must match.
  const ChildRun warm = run_child(command, stdout_path);
  const std::string crc = printed_crc(stdout_path);
  if (warm.exit_code != 0 || crc.empty()) {
    throw std::runtime_error("mapit snapshot failed (exit " +
                             std::to_string(warm.exit_code) + ")");
  }
  const std::string reference = read_file(out);

  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> rss;
  std::uint32_t reps = 0;
  if (!tracing()) {
    while (reps < repetitions) {
      const ChildRun run = run_child(command, stdout_path);
      ++reps;
      if (run.exit_code != 0 || printed_crc(stdout_path) != crc) {
        result.fail("repetition " + std::to_string(reps) + ": exit " +
                    std::to_string(run.exit_code) + ", crc " +
                    printed_crc(stdout_path) + " != " + crc);
        continue;
      }
      wall.push_back(run.wall_ms);
      cpu.push_back(run.cpu_ms);
      rss.push_back(run.maxrss_mib);
    }
  } else {
    // The CLI's best wall time, for the span-coverage statement.
    for (int i = 0; i < 3; ++i) {
      wall.push_back(run_child(command, stdout_path).wall_ms);
    }
    trace_meta("cli_wall_ms", std::to_string(quantile(wall, 0.0)));
    wall.clear();
    const std::string traced_out = work + "/cold-traced.snap";
    while (reps < repetitions) {
      const std::uint64_t start = now_ns();
      // Process CPU, like the CLI child's rusage: the workers count too.
      const double cpu_start = process_cpu_ms();
      mapit::store::WriteInfo info;
      {
        const Span span("cold.pipeline", reps);
        info = snapshot_in_process(inputs, inputs.traces, traced_out, reps);
      }
      ++reps;
      if (hex(info.payload_crc32) != crc || read_file(traced_out) != reference) {
        result.fail("in-process repetition " + std::to_string(reps) +
                    " differs from the CLI snapshot (crc " +
                    hex(info.payload_crc32) + " != " + crc + ")");
      }
      wall.push_back(static_cast<double>(now_ns() - start) / 1e6);
      cpu.push_back(process_cpu_ms() - cpu_start);
    }
    rss.push_back(peak_rss_mib());
  }
  result.attempted(reps);
  if (wall.empty()) throw std::runtime_error("no successful repetition");

  // Neighbour interference on a shared host makes repetitions bimodal, so
  // the median of a run jumps between modes; the fastest repetition is the
  // steady figure. A run has too few repetitions for a percentile above the
  // median with ten samples beyond it, so the tail is the median.
  const double best = quantile(wall, 0.0);
  result.metric("op_latency_ms", best, "ms");
  result.metric("op_latency_ms_tail", median(wall), "ms");
  result.metric("op_cpu_ms", quantile(cpu, 0.0), "ms");
  result.metric("throughput_per_s", static_cast<double>(traces) / (best / 1e3),
                "1/s");
  result.metric("peak_rss_mb", median(rss), "MiB");
  result.metric("cold_snapshot_ms", median(wall), "ms");
  result.metric("cold_cpu_ms", median(cpu), "ms");
  result.metric("snapshot_repetitions", reps, "count");
  std::cout << "snapshot crc32 " << crc << ", " << reference.size()
            << " bytes\n";
  result.print();
  return 0;
}

}  // namespace perfbench
