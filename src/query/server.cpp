#include "query/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "net/error.h"

namespace mapit::query {

namespace detail {

/// Out of fds (EMFILE/ENFILE), kernel memory pressure (ENOBUFS/ENOMEM), or
/// a connection that died in the backlog (ECONNABORTED, EPROTO). A serve
/// loop that exits on any of these turns one load spike into an outage.
bool transient_accept_error(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM ||
         err == ECONNABORTED || err == EPROTO || err == EAGAIN ||
         err == EWOULDBLOCK;
}

int bind_listener(const ServerOptions& options, bool nonblocking,
                  std::uint16_t* port_out) {
  const int type =
      SOCK_STREAM | SOCK_CLOEXEC | (nonblocking ? SOCK_NONBLOCK : 0);
  const int fd = ::socket(AF_INET, type, 0);
  if (fd < 0) {
    throw Error(std::string("serve: socket: ") + std::strerror(errno));
  }
  const auto fail = [fd](const std::string& what) -> int {
    const int err = errno;
    ::close(fd);
    throw Error("serve: " + what + ": " + std::strerror(err));
  };
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    return fail("setsockopt(SO_REUSEADDR)");
  }
  if (options.reuse_port &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    return fail("setsockopt(SO_REUSEPORT)");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("cannot bind 127.0.0.1:" + std::to_string(options.port));
  }
  socklen_t addr_len = sizeof(addr);
  const int backlog = options.backlog > 0 ? options.backlog : SOMAXCONN;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0 ||
      ::listen(fd, backlog) != 0) {
    return fail("listen");
  }
  *port_out = ntohs(addr.sin_port);
  return fd;
}

}  // namespace detail

void format_health(std::string& out, const QueryEngine& engine,
                   std::uint64_t generation, std::uint64_t swaps,
                   std::chrono::steady_clock::time_point started,
                   std::size_t connections, std::uint64_t refused,
                   std::uint64_t accept_retries, std::uint64_t shed,
                   const std::string& last_swap_error) {
  char crc_hex[9];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x",
                engine.reader().payload_crc32());
  const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  out += "OK crc32=";
  out += crc_hex;
  out += " uptime=";
  append_decimal(out, uptime);
  out += " connections=";
  append_decimal(out, connections);
  out += " inferences=";
  append_decimal(out, engine.reader().inferences().size());
  out += " refused=";
  append_decimal(out, refused);
  out += " accept_retries=";
  append_decimal(out, accept_retries);
  out += " version=";
  append_decimal(out, engine.reader().version());
  out += " generation=";
  append_decimal(out, generation);
  out += " swaps=";
  append_decimal(out, swaps);
  out += " shed=";
  append_decimal(out, shed);
  // "never swapped" (none) and "swap failing" (the message) must be
  // distinguishable to the supervisor's probe. One token, key=value safe.
  out += " last_swap_error=";
  if (last_swap_error.empty()) {
    out += "none";
  } else {
    for (const char c : last_swap_error) {
      out += (c == ' ' || c == '\n' || c == '\r' || c == '\t') ? '_' : c;
    }
  }
}

}  // namespace mapit::query
