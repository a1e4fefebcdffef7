// A stream whose reads fail partway through, the way libstdc++'s filebuf
// fails on an I/O error mid-file: underflow() throws, and the istream
// swallows that into badbit. A loader that only tests for end of input
// would return what it read so far as if it were the whole file.
#pragma once

#include <gtest/gtest.h>

#include <ios>
#include <istream>
#include <streambuf>
#include <string>
#include <utility>

#include "net/error.h"

namespace mapit::testutil {

/// Serves `prefix`, then throws from every further read.
class FailingStreambuf : public std::streambuf {
 public:
  explicit FailingStreambuf(std::string prefix) : prefix_(std::move(prefix)) {
    setg(prefix_.data(), prefix_.data(), prefix_.data() + prefix_.size());
  }

 protected:
  int_type underflow() override {
    throw std::ios_base::failure("injected read error");
  }

 private:
  std::string prefix_;
};

class FailingStream : public std::istream {
 public:
  explicit FailingStream(std::string prefix)
      : std::istream(nullptr), buffer_(std::move(prefix)) {
    rdbuf(&buffer_);
  }

 private:
  FailingStreambuf buffer_;
};

/// Feeds `load` a stream that fails after `prefix` and expects the loader
/// to throw mapit::Error naming `input` (not a ParseError, not a result).
template <typename Load>
void expect_read_error(const std::string& prefix, const std::string& input,
                       Load&& load) {
  FailingStream stream(prefix);
  try {
    (void)load(stream);
    ADD_FAILURE() << input << ": loader returned after a read error";
  } catch (const ParseError& e) {
    ADD_FAILURE() << input << ": read error reported as bad input: "
                  << e.what();
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), input + ": read error, input truncated");
  }
}

}  // namespace mapit::testutil
