// perfbench: the benchmark harness behind perfbench/run.py.
//
//   perfbench gen    --seed N --monitors M [--delta-traces D] --out DIR
//   perfbench cold   --inputs DIR --mapit BIN --work DIR --seconds S [tracing]
//   perfbench serve  --inputs DIR --seed N --seconds S [tracing]
//   perfbench ingest --inputs DIR --mapit BIN --work DIR --seed N --seconds S
//                    [tracing]
//
// tracing: --trace 1 --trace-out FILE records spans and writes them to FILE
// at exit. A workload prints "check failed: ..." lines and then one JSON
// result line; an error exits 1 without a result.
#include <iostream>
#include <stdexcept>
#include <string>

#include "tracing.h"
#include "util.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: perfbench gen|cold|serve|ingest --key value ...\n";
    return 2;
  }
  try {
    const std::string command = argv[1];
    const Args args(argc, argv, 2);
    const bool traced = args.get("trace", "0") == "1";
    set_tracing(traced);
    trace_meta("workload", command);
    trace_meta("seed", args.get("seed", "-"));
    int status = 2;
    if (command == "gen") {
      status = generate(args);
    } else if (command == "cold") {
      status = run_cold(args);
    } else if (command == "serve") {
      status = run_serve(args);
    } else if (command == "ingest") {
      status = run_ingest(args);
    } else {
      std::cerr << "unknown command " << command << "\n";
    }
    if (traced) write_trace(args.get("trace-out"));
    return status;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
