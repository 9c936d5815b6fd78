// Paper-shape verdicts of the table, figure and ablation benches.
//
// A bench prints each shape check it makes as HOLDS, or as CHECK (a trend
// the paper shows, such as a monotone series) or BROKEN (a bound that must
// never fail) when the check fails. Every verdict that is not HOLDS is
// recorded, and the bench's exit code reports them, so a bench run as a
// ctest (label `paper`) fails on any of them.
#pragma once

namespace nbuf::bench {

enum class Miss { Check, Broken };

namespace detail {
inline int misses = 0;  // verdicts that were not HOLDS
}  // namespace detail

// The label to print for one shape check; a failed check is recorded.
[[nodiscard]] inline const char* verdict(bool holds, Miss miss = Miss::Check) {
  if (holds) return "HOLDS";
  ++detail::misses;
  return miss == Miss::Broken ? "BROKEN" : "CHECK";
}

// main()'s return value: 0 when every verdict read HOLDS, 1 otherwise.
[[nodiscard]] inline int verdict_exit_code() {
  return detail::misses == 0 ? 0 : 1;
}

}  // namespace nbuf::bench
