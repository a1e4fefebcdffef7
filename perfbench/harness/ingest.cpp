// ingest_live: the standard corpus is the base; an open loop delivers one
// 1000-trace delta batch every 100 ms while a closed-loop reader queries a
// hub-mode AsyncServer. Each batch follows the ingest runner's write-ahead
// order through public calls: journal append + sync, fold, publish, hub
// refresh. The runner's poll and batch timers are bypassed on purpose: they
// would dominate the latency and measure settings, not code.
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string_view>
#include <thread>

#include "core/journal.h"
#include "ingest/pipeline.h"
#include "load.h"
#include "query/hub.h"
#include "serve.h"
#include "trace/trace_io.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kBatchLines = 1000;  // `mapit ingest --batch-lines`
// Well under capacity: a batch costs ~30 ms of work, and stalls of the
// shared host can nearly double that for seconds; a queue that builds up
// then would measure the host, not the code.
constexpr std::uint64_t kPeriodNs = 100'000'000;

struct DeltaLine {
  std::uint64_t offset;
  std::string_view text;
};

/// The generation a HEALTH answer on `fd` reports; 0 on failure.
std::uint64_t probe_generation(int fd) {
  const std::string answer = ask_health(fd);
  const std::size_t at = answer.find(" generation=");
  return at == std::string::npos ? 0 : std::stoull(answer.substr(at + 12));
}

}  // namespace

int run_ingest(const Args& args) {
  using namespace mapit;
  const std::string dir = args.get("inputs");
  const InputFiles inputs(dir);
  const std::string mapit = args.get("mapit");
  const std::string work = args.get("work");
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::uint64_t seconds = args.get_u64("seconds", 10);
  const std::string live = work + "/live.snap";
  const std::string journal = work + "/live.journal";
  Result result;

  const std::string deltas = read_file(dir + "/deltas.txt");
  std::vector<DeltaLine> lines;
  for (std::size_t at = 0; at < deltas.size();) {
    const std::size_t end = deltas.find('\n', at);
    if (end == std::string::npos) break;
    lines.push_back({at, std::string_view(deltas).substr(at, end - at)});
    at = end + 1;
  }
  // Every batch of a 20 s run is distinct, so the graph keeps growing as a
  // live feed's does; a longer run cycles through the pool again.
  const std::size_t pool = lines.size() / kBatchLines;
  const std::size_t batches = seconds * 1'000'000'000ull / kPeriodNs;
  if (pool == 0) throw std::runtime_error("deltas.txt holds no whole batch");

  ingest::IngestSetup setup;
  setup.traces_path = inputs.traces;
  setup.rib_path = inputs.rib;
  setup.relationships_path = inputs.relationships;
  setup.as2org_path = inputs.as2org;
  setup.ixps_path = inputs.ixps;
  setup.options.threads = kThreads;

  // Set-up: base load, first publish, journal, hub open and server start,
  // repeated; the last instance runs the workload.
  std::unique_ptr<ingest::IngestPipeline> pipeline;
  std::unique_ptr<core::JournalWriter> writer;
  std::unique_ptr<query::SnapshotHub> hub;
  std::unique_ptr<ServingServer> server;
  std::vector<double> setups;
  for (int i = 0; i < 11; ++i) {
    server.reset();
    hub.reset();
    writer.reset();
    pipeline.reset();
    std::filesystem::remove(journal);
    std::filesystem::remove(live);
    const std::uint64_t start = now_ns();
    pipeline = std::make_unique<ingest::IngestPipeline>(setup);
    pipeline->publish(live);
    writer = std::make_unique<core::JournalWriter>(
        core::JournalWriter::open(journal, pipeline->meta()));
    hub = std::make_unique<query::SnapshotHub>(live);
    server = std::make_unique<ServingServer>(*hub);
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  result.metric("setup_s", median(setups), "s");

  std::vector<std::string> queries;
  for (const QueryMix& q : make_query_mix(hub->current()->reader, seed)) {
    queries.push_back(q.line);
  }
  ClientConfig config;
  config.port = server->port();
  config.connections.push_back({});
  config.queries = &queries;
  config.probe_generation = true;
  // Think time leaves the ingest thread and its worker CPU to spare, so a
  // busy host does not push batches past their period.
  config.think = std::chrono::microseconds(200);
  LoadClient reader(config, seconds);
  const int probe = connect_loopback(server->port());
  if (probe < 0) throw std::runtime_error("probe connection failed");
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  std::vector<double> visible_ms;
  std::vector<double> cpu_ms;
  std::uint64_t refreshes = 0;
  std::uint64_t swaps = 0;
  std::uint64_t folded = 0;
  const std::uint64_t t0 = now_ns();
  reader.begin_measure(t0);
  std::uint64_t previous_end = t0;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto run = static_cast<std::uint32_t>(b);
    const std::uint64_t due = t0 + b * kPeriodNs;
    if (now_ns() < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns()));
    }
    const std::uint64_t start = now_ns();
    counter("ingest.wait.ms", run, static_cast<double>(start - due) / 1e6);
    counter("ingest.generator_late_ms", run,
            previous_end <= due ? static_cast<double>(start - due) / 1e6 : 0.0);
    const std::uint64_t cpu_start = thread_cpu_ns();
    const DeltaLine* batch = &lines[(b % pool) * kBatchLines];
    std::uint64_t generation = 0;
    {
      const Span root("ingest.batch", run);
      trace::TraceCorpus corpus;
      {
        const Span span("ingest.parse", run, kBatchLines);
        for (std::size_t k = 0; k < kBatchLines; ++k) {
          corpus.add(trace::parse_trace(batch[k].text, "delta"));
        }
      }
      {
        const Span span("core.journal.append", run, kBatchLines);
        for (std::size_t k = 0; k < kBatchLines; ++k) {
          writer->append(core::JournalRecord::trace(batch[k].offset,
                                                    std::string(batch[k].text)));
        }
      }
      {
        const Span span("core.journal.sync", run);
        writer->sync();
      }
      {
        const Span span("ingest.fold", run);
        pipeline->fold(corpus);
      }
      folded += kBatchLines;
      store::WriteInfo info;
      {
        const Span span("ingest.publish", run);
        info = pipeline->publish(live);
      }
      {
        const Span span("query.hub.refresh", run);
        ++refreshes;
        if (hub->refresh()) ++swaps;
      }
      generation = probe_generation(probe);
      visible_ms.push_back(static_cast<double>(now_ns() - due) / 1e6);
      {
        const Span span("core.journal.append", run);
        writer->append(core::JournalRecord::commit(b + 1, folded,
                                                   info.payload_crc32));
      }
      {
        const Span span("core.journal.sync", run);
        writer->sync();
      }
    }
    cpu_ms.push_back(static_cast<double>(thread_cpu_ns() - cpu_start) / 1e6);
    previous_end = now_ns();
    if (generation != b + 2) {
      result.fail("batch " + std::to_string(b) + " not visible: generation " +
                  std::to_string(generation) + ", expected " +
                  std::to_string(b + 2));
    }
  }
  reader.stop();
  close(probe);
  result.attempted(batches);
  counter("query.hub.swap_ratio", 0,
          static_cast<double>(swaps) / static_cast<double>(refreshes));
  const double peak_mib = peak_rss_mib();
  const ClientStats& reads = reader.stats();
  if (reads.failures > 0) {
    result.fail("reader: " + std::to_string(reads.failures) +
                    " bad answers, first " + reads.first_failure,
                reads.failures);
  }
  if (reads.generation_regressions > 0) {
    result.fail("reader saw the generation go backwards " +
                    std::to_string(reads.generation_regressions) + " times",
                reads.generation_regressions);
  }
  server.reset();
  hub.reset();
  writer.reset();
  pipeline.reset();

  // The final published snapshot must equal a cold `mapit snapshot` over the
  // base corpus plus every delivered delta line.
  const std::string combined = work + "/combined.txt";
  {
    std::string bytes = read_file(inputs.traces);
    for (std::size_t b = 0; b < batches; ++b) {
      for (std::size_t k = 0; k < kBatchLines; ++k) {
        bytes += lines[(b % pool) * kBatchLines + k].text;
        bytes += '\n';
      }
    }
    write_file(combined, bytes);
  }
  const std::string published = read_file(live);
  const std::string cold = work + "/combined.snap";
  const ChildRun reference =
      run_child(snapshot_command(mapit, inputs, combined, cold), work + "/combined.out");
  if (reference.exit_code != 0 || read_file(cold) != published) {
    result.fail("final snapshot differs from mapit snapshot over base + deltas",
                batches);
  }
  if (tracing()) {
    const std::string traced = work + "/combined-traced.snap";
    {
      const Span span("reference.pipeline", 0);
      (void)snapshot_in_process(inputs, combined, traced, 0);
    }
    if (read_file(traced) != published) {
      result.fail("final snapshot differs from the in-process reference",
                  batches);
    }
  }

  double cpu_total = 0;
  for (const double ms : cpu_ms) cpu_total += ms;
  const double p50 = quantile(visible_ms, 0.50);
  const double p95 = quantile(visible_ms, 0.95);
  // The end-to-end tail: p95 of each 2-second interval (20 batches), median
  // over the intervals, so a host stall of a second or two that slows a
  // handful of batches does not decide it.
  constexpr std::size_t kInterval = 2'000'000'000 / kPeriodNs;
  std::vector<double> interval_p95;
  for (std::size_t first = 0; first + kInterval <= visible_ms.size();
       first += kInterval) {
    interval_p95.push_back(quantile(
        std::vector<double>(visible_ms.begin() + static_cast<long>(first),
                            visible_ms.begin() +
                                static_cast<long>(first + kInterval)),
        0.95));
  }
  const double reader_qps = median_throughput(reads);
  result.metric("op_latency_ms", p50, "ms");
  result.metric("op_latency_ms_tail",
                interval_p95.empty() ? p95 : median(interval_p95), "ms");
  result.metric("op_cpu_ms", median(cpu_ms), "ms");
  result.metric("throughput_per_s", reader_qps, "1/s");
  result.metric("peak_rss_mb", peak_mib, "MiB");
  result.metric("delta_visible_ms_p50", p50, "ms");
  result.metric("delta_visible_ms_p95", p95, "ms");
  result.metric("ingest_cpu_ms_per_batch", cpu_total / static_cast<double>(batches), "ms");
  result.metric("query_latency_us_p50", median_interval_latency(reads, 0.50), "us");
  result.metric("query_latency_us_p99", median_interval_latency(reads, 0.99), "us");
  result.metric("reader_qps", reader_qps, "1/s");
  result.metric("batches", static_cast<double>(batches), "count");
  result.print();
  return 0;
}

}  // namespace perfbench
