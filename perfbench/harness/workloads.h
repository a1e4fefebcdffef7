// Entry points of the perfbench subcommands, and the traced in-process copy
// of the `mapit snapshot` pipeline that two workloads use as a reference.
#pragma once

#include <cstdint>
#include <string>

#include "store/writer.h"
#include "util.h"

namespace perfbench {

/// The program's worker count in every workload.
inline constexpr unsigned kThreads = 2;

/// The text inputs one generated corpus consists of.
struct InputFiles {
  explicit InputFiles(const std::string& dir)
      : traces(dir + "/traces.txt"),
        rib(dir + "/rib.txt"),
        relationships(dir + "/relationships.txt"),
        as2org(dir + "/as2org.txt"),
        ixps(dir + "/ixps.txt") {}

  std::string traces;
  std::string rib;
  std::string relationships;
  std::string as2org;
  std::string ixps;
};

/// `mapit snapshot --threads 2` over `inputs` (with `traces` standing in for
/// inputs.traces) as a child process; `out` receives the snapshot.
[[nodiscard]] std::vector<std::string> snapshot_command(
    const std::string& mapit, const InputFiles& inputs,
    const std::string& traces, const std::string& out);

/// The same pipeline in process, one span per public call, run id `run`.
mapit::store::WriteInfo snapshot_in_process(const InputFiles& inputs,
                                            const std::string& traces,
                                            const std::string& out,
                                            std::uint32_t run);

int generate(const Args& args);
int run_cold(const Args& args);
int run_serve(const Args& args);
int run_ingest(const Args& args);

}  // namespace perfbench
