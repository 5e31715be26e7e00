// Contract-checking macros used across the library.
//
// The C++ Core Guidelines (I.6/I.8) recommend expressing preconditions and
// postconditions explicitly.  We cannot use the C++26 contracts syntax yet,
// so the library uses these macros, which throw rather than abort so that
// property-based tests can exercise failure paths.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace hinet {

/// Thrown when a precondition (HINET_REQUIRE) is violated.
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an internal invariant (HINET_ENSURE) is violated.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
// The throw paths are cold and never inlined, so a HINET_REQUIRE in a hot
// loop costs its compare and branch; the message formatting stays out of
// line.
[[noreturn, gnu::cold, gnu::noinline]] inline void throw_precondition(
    const char* expr, const char* file, int line, const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw PreconditionError(os.str());
}

[[noreturn, gnu::cold, gnu::noinline]] inline void throw_invariant(
    const char* expr, const char* file, int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvariantError(os.str());
}
}  // namespace detail

}  // namespace hinet

/// Precondition check: callers violated the API contract.
#define HINET_REQUIRE(expr, msg)                                          \
  do {                                                                    \
    if (!(expr))                                                          \
      ::hinet::detail::throw_precondition(#expr, __FILE__, __LINE__, msg); \
  } while (false)

/// Invariant / postcondition check: the library itself is inconsistent.
#define HINET_ENSURE(expr, msg)                                        \
  do {                                                                 \
    if (!(expr))                                                       \
      ::hinet::detail::throw_invariant(#expr, __FILE__, __LINE__, msg); \
  } while (false)
