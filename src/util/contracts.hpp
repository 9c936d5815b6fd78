// Compile-time-leveled contract macros — the single home of every
// precondition and invariant check in the library.
//
// Three macros, by audience and cost:
//
//   NBUF_REQUIRE(cond)    public-API precondition (a CALLER error); throws
//                         std::invalid_argument. O(1).
//   NBUF_ASSERT(cond)     internal invariant (a LIBRARY bug); throws
//                         std::logic_error. O(1).
//   NBUF_INVARIANT(cond)  expensive structural invariant (full O(n) walk of
//                         a data structure); throws std::logic_error.
//
// Each macro has _MSG (fixed message) and _CTX (formatted context values,
// built with nbuf::util::ctx("name", value, ...)) variants.
//
// REQUIRE and ASSERT are always compiled in: a build without them measured
// within -1.7%..+0.9% of one with them (docs/quality.md), and a silently
// corrupted optimization result costs far more than the checks. The
// compile-time level NBUF_CONTRACTS selects what else stays in the binary:
//
//   1  REQUIRE + ASSERT only (cheap O(1) checks). The default, Release
//      builds included.
//   2  additionally NBUF_INVARIANT and the NBUF_STRUCTURAL_CHECKS block
//      helper: full structural re-verification after every mutating step
//      (candidate-list sort/Pareto walks, exactly-once claim tracking).
//      The default for Debug and sanitizer (ASan/UBSan/TSan) builds.
//
// Failure messages are structured: kind, stringified expression, file:line,
// then the formatted context values, e.g.
//
//   contract violated: NBUF_ASSERT(load >= 0.0) at vanginneken.cpp:123
//   [i=4 load=-0.25]
//
// Failures THROW rather than abort so the batch engine can drain its worker
// pool and surface the first error, and so tests can EXPECT_THROW on them.
// In a noexcept context (worker teardown, destructors) a contract failure
// still dies loudly via std::terminate — tests/test_contracts_l*.cpp pins
// both behaviors, the throw and the death.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

#ifndef NBUF_CONTRACTS
#define NBUF_CONTRACTS 1
#endif

namespace nbuf::util {

// Formats alternating name/value pairs: ctx("x", 1.5, "n", 3) -> "x=1.5 n=3".
// Values stream via operator<<; keep them cheap — the call only runs on the
// failure path, but the arguments are evaluated to build it.
namespace detail {
inline void ctx_append(std::ostringstream&) {}
template <typename V, typename... Rest>
void ctx_append(std::ostringstream& os, const char* name, const V& value,
                const Rest&... rest) {
  if (os.tellp() > 0) os << ' ';
  os << name << '=' << value;
  ctx_append(os, rest...);
}
}  // namespace detail

template <typename... Args>
std::string ctx(const Args&... args) {
  static_assert(sizeof...(Args) % 2 == 0,
                "ctx() takes alternating name/value pairs");
  std::ostringstream os;
  detail::ctx_append(os, args...);
  return os.str();
}

[[noreturn]] inline void contract_fail_require(const char* cond,
                                               const char* file, int line,
                                               const std::string& context) {
  std::ostringstream os;
  os << "precondition failed: NBUF_REQUIRE(" << cond << ") at " << file << ':'
     << line;
  if (!context.empty()) os << " [" << context << ']';
  throw std::invalid_argument(os.str());
}

[[noreturn]] inline void contract_fail_assert(const char* cond,
                                              const char* file, int line,
                                              const std::string& context) {
  std::ostringstream os;
  os << "invariant failed: NBUF_ASSERT(" << cond << ") at " << file << ':'
     << line;
  if (!context.empty()) os << " [" << context << ']';
  throw std::logic_error(os.str());
}

[[noreturn]] inline void contract_fail_invariant(const char* cond,
                                                 const char* file, int line,
                                                 const std::string& context) {
  std::ostringstream os;
  os << "structural invariant failed: NBUF_INVARIANT(" << cond << ") at "
     << file << ':' << line;
  if (!context.empty()) os << " [" << context << ']';
  throw std::logic_error(os.str());
}

}  // namespace nbuf::util

// Disabled checks must neither evaluate the condition nor warn about
// now-unused variables: sizeof keeps every name odr-unused but "used".
#define NBUF_CONTRACT_OFF_(cond) \
  do {                           \
    (void)sizeof(!(cond));       \
  } while (0)

#define NBUF_REQUIRE(cond)                                                   \
  do {                                                                       \
    if (!(cond))                                                             \
      ::nbuf::util::contract_fail_require(#cond, __FILE__, __LINE__, "");    \
  } while (0)
#define NBUF_REQUIRE_MSG(cond, msg)                                          \
  do {                                                                       \
    if (!(cond))                                                             \
      ::nbuf::util::contract_fail_require(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)
#define NBUF_REQUIRE_CTX(cond, context)                                     \
  do {                                                                      \
    if (!(cond))                                                            \
      ::nbuf::util::contract_fail_require(#cond, __FILE__, __LINE__,        \
                                          (context));                       \
  } while (0)

#define NBUF_ASSERT(cond)                                                   \
  do {                                                                      \
    if (!(cond))                                                            \
      ::nbuf::util::contract_fail_assert(#cond, __FILE__, __LINE__, "");    \
  } while (0)
#define NBUF_ASSERT_MSG(cond, msg)                                          \
  do {                                                                      \
    if (!(cond))                                                            \
      ::nbuf::util::contract_fail_assert(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)
#define NBUF_ASSERT_CTX(cond, context)                               \
  do {                                                               \
    if (!(cond))                                                     \
      ::nbuf::util::contract_fail_assert(#cond, __FILE__, __LINE__,  \
                                         (context));                 \
  } while (0)

#if NBUF_CONTRACTS >= 2

// True in contexts where O(n) structural verification should run; usable in
// ordinary `if` conditions to gate whole verification blocks.
#define NBUF_STRUCTURAL_CHECKS 1

#define NBUF_INVARIANT(cond)                                                \
  do {                                                                      \
    if (!(cond))                                                            \
      ::nbuf::util::contract_fail_invariant(#cond, __FILE__, __LINE__, ""); \
  } while (0)
#define NBUF_INVARIANT_MSG(cond, msg)                                \
  do {                                                               \
    if (!(cond))                                                     \
      ::nbuf::util::contract_fail_invariant(#cond, __FILE__,         \
                                            __LINE__, (msg));        \
  } while (0)
#define NBUF_INVARIANT_CTX(cond, context)                            \
  do {                                                               \
    if (!(cond))                                                     \
      ::nbuf::util::contract_fail_invariant(#cond, __FILE__,         \
                                            __LINE__, (context));    \
  } while (0)

#else

#define NBUF_STRUCTURAL_CHECKS 0

#define NBUF_INVARIANT(cond) NBUF_CONTRACT_OFF_(cond)
#define NBUF_INVARIANT_MSG(cond, msg) NBUF_CONTRACT_OFF_(cond)
#define NBUF_INVARIANT_CTX(cond, context) NBUF_CONTRACT_OFF_(cond)

#endif
