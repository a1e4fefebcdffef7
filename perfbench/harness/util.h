// Small helpers shared by the benchmark workloads: argument parsing, files,
// order statistics, child processes, loopback sockets and the result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// `--key value` pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  [[nodiscard]] std::string get(const std::string& key) const;  ///< required
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view bytes);

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// User + system CPU time of this process so far.
[[nodiscard]] double process_cpu_ms();

/// Peak resident set of this process so far (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mib();

struct ChildRun {
  int exit_code = -1;  ///< -1 when killed by a signal
  double wall_ms = 0;  ///< exec to exit
  double cpu_ms = 0;   ///< user + sys from wait4
  double maxrss_mib = 0;
};
/// Runs argv[0] (a path) with stdout to `stdout_path` and stderr discarded,
/// and waits for it.
[[nodiscard]] ChildRun run_child(const std::vector<std::string>& argv,
                                 const std::string& stdout_path);

/// Blocking TCP_NODELAY connection to 127.0.0.1:port; -1 on failure.
[[nodiscard]] int connect_loopback(std::uint16_t port);
[[nodiscard]] bool send_all(int fd, std::string_view bytes);

/// Metrics of one run, printed as "name value unit" report lines and as the
/// final JSON result line run.py consumes.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void fail(const std::string& why, std::uint64_t operations = 1);
  void attempted(std::uint64_t operations) { attempted_ = operations; }
  [[nodiscard]] bool correct() const { return failures_.empty(); }
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
