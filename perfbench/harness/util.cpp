#include "util.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "tracing.h"

namespace perfbench {

namespace {

double to_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

}  // namespace

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("expected --key value, got '" + key + "'");
    }
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Args::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::runtime_error("--" + key + " is required");
  return it->second;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::uint64_t Args::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::stoull(it->second);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto low = static_cast<std::size_t>(rank);
  const std::size_t high = std::min(low + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(low);
  return samples[low] + (samples[high] - samples[low]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return to_ms(usage.ru_utime) + to_ms(usage.ru_stime);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

ChildRun run_child(const std::vector<std::string>& argv,
                   const std::string& stdout_path) {
  std::vector<char*> raw;
  for (const std::string& arg : argv) raw.push_back(const_cast<char*>(arg.c_str()));
  raw.push_back(nullptr);
  ChildRun run;
  const std::uint64_t start = now_ns();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    const int out = open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int null = open("/dev/null", O_WRONLY);
    if (out < 0 || null < 0) _exit(127);
    dup2(out, STDOUT_FILENO);
    dup2(null, STDERR_FILENO);
    execv(raw[0], raw.data());
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    throw std::runtime_error("wait4 failed");
  }
  run.wall_ms = static_cast<double>(now_ns() - start) / 1e6;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.cpu_ms = to_ms(usage.ru_utime) + to_ms(usage.ru_stime);
  run.maxrss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB
  return run;
}

int connect_loopback(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&address),
              sizeof(address)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::fail(const std::string& why, std::uint64_t operations) {
  failures_.push_back(why);
  failed_ += operations;
}

void Result::print() const {
  for (const std::string& why : failures_) {
    std::cout << "check failed: " << why << "\n";
  }
  char number[64];
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
            << ", \"failed\": " << std::min(failed_, std::max<std::uint64_t>(attempted_, 1))
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, measured] = metrics_[i];
    std::snprintf(number, sizeof(number), "%.17g", measured.first);
    std::cout << (i == 0 ? "" : ", ") << '"' << name << "\": {\"value\": "
              << number << ", \"unit\": \"" << measured.second << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench
