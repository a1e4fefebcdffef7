// Common error types for the mapit library.
//
// All recoverable failures (malformed input files, out-of-range values) are
// reported with exceptions derived from mapit::Error, so callers can catch a
// single base type at a pipeline boundary.
#pragma once

#include <ios>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mapit {

/// Base class of every exception thrown by the mapit library.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Malformed textual input (addresses, prefixes, dataset files).
class ParseError : public Error {
 public:
  using Error::Error;
};

/// A caller violated a documented API precondition.
class InvariantError : public Error {
 public:
  using Error::Error;
};

namespace detail {
[[noreturn]] inline void fail_invariant(const std::string& what) {
  throw InvariantError(what);
}
}  // namespace detail

/// Checks a documented precondition; throws InvariantError on failure.
#define MAPIT_ENSURE(cond, msg)                                     \
  do {                                                              \
    if (!(cond)) ::mapit::detail::fail_invariant(msg);              \
  } while (false)

/// Every text loader calls this once its read loop ends. A stream in bad()
/// failed mid-read (libstdc++'s filebuf throws from underflow() on EIO and
/// the stream swallows that into badbit), so what was parsed is a truncated
/// prefix of `input`, never a result.
inline void check_read(const std::ios& stream, std::string_view input) {
  if (stream.bad()) {
    throw Error(std::string(input) + ": read error, input truncated");
  }
}

}  // namespace mapit
