// Internal: the bottom-up wire climb shared by Algorithms 1 and 2.
//
// Climbing a wire from its bottom node toward its parent, a buffer is
// inserted whenever deferring it past the wire's top would violate noise
// (Algorithm 1, Step 3); each forced buffer goes at its maximal distance up
// the wire (Theorem 1), which is what makes the greedy optimal.
#pragma once

#include <cmath>

#include "core/plan.hpp"
#include "core/theory.hpp"
#include "rct/tree.hpp"
#include "util/check.hpp"

namespace nbuf::core::detail {

// Fraction of a wire's length reserved at its very top so that fork buffers
// ("immediately following v", Algorithm 2 Step 6) always fit strictly above
// any forced Theorem-1 placement on the same wire.
inline constexpr double kTopGapFrac = 1e-6;

// Relative backoff applied to Theorem-1 maximal placements. At the exact
// critical length the noise EQUALS the margin; evaluating the same sums in a
// different order can then round a hair above it. Backing off by one part in
// 10^6 (sub-µV at a 0.8 V margin) keeps every forced placement strictly
// feasible under re-evaluation without affecting buffer counts.
inline constexpr double kPlacementBackoff = 1e-6;

// Bottom-up optimization state at a tree node (below its parent wire).
struct ClimbState {
  double current = 0.0;      // A — downstream current I(v), eq. 7
  double noise_slack = 0.0;  // V — NS(v), eq. 12
  std::size_t buffers = 0;
  PlanRef plan = kNullPlan;
};

// Climbs the parent wire of `below` (electrical values `w`), inserting
// forced buffers of resistance r_b / margin nm_b (library id `bid`) into
// `arena`. Returns the state at the wire's top. The returned state always
// satisfies NS >= r_b * I (a buffer placed right at the top is feasible).
inline ClimbState climb_wire(const rct::Wire& w, rct::NodeId below,
                             ClimbState s, double r_b, double nm_b,
                             lib::BufferId bid, PlanArena& arena) {
  NBUF_ASSERT(s.noise_slack >= r_b * s.current - 1e-18);
  // The Devgan metric is an upper bound only for finite, nonnegative
  // electricals (PAPER.md Thm 2); a NaN here would silently poison every
  // comparison below, so reject non-physical wires loudly.
  NBUF_REQUIRE_CTX(std::isfinite(w.resistance) && w.resistance >= 0.0 &&
                       std::isfinite(w.coupling_current) &&
                       w.coupling_current >= 0.0 && std::isfinite(w.length),
                   util::ctx("node", below.value(), "R", w.resistance, "I",
                             w.coupling_current, "len", w.length));
  if (w.length <= 0.0 || (w.resistance <= 0.0 && w.coupling_current <= 0.0)) {
    return s;  // zero-length binarization dummy: electrically transparent
  }
  const double r_per = w.resistance / w.length;
  const double i_per = w.coupling_current / w.length;
  const double top_gap = kTopGapFrac * w.length;

  double base = 0.0;  // µm of this wire already below us
  while (true) {
    const double remaining = w.length - base;
    // Deferral test (Algorithm 1, Step 3): would a buffer at the wire's top
    // still satisfy noise over everything below it?
    const double top_noise = uniform_wire_noise(r_b, r_per, i_per, remaining,
                                                s.current);
    if (top_noise <= s.noise_slack) {
      s.noise_slack -= r_per * remaining *
                       (i_per * remaining / 2.0 + s.current);
      s.current += i_per * remaining;
      // Climb monotonicity (eq. 12): the wire charge only ever CONSUMES
      // noise slack, and the top state must still admit a buffer.
      NBUF_ASSERT_CTX(s.noise_slack >= r_b * s.current - 1e-18,
                      util::ctx("NS", s.noise_slack, "R_b*I",
                                r_b * s.current));
      return s;
    }
    // Forced insertion at maximal distance above the current bottom
    // (Theorem 1). The climb invariant guarantees the side condition.
    const auto x_opt =
        critical_length(r_b, r_per, i_per, s.noise_slack, s.current);
    NBUF_ASSERT_MSG(x_opt.has_value(), "climb invariant NS >= R_b*I broken");
    // Theorem 1 length bounds: the maximal placement is nonnegative and —
    // since the deferral test above failed — inside the remaining wire (a
    // critical length beyond it would have made the top feasible). The
    // relative slop covers sqrt rounding in the quadratic solve.
    NBUF_ASSERT_CTX(*x_opt >= 0.0 && *x_opt <= remaining * (1.0 + 1e-9),
                    util::ctx("x_opt", *x_opt, "remaining", remaining));
    // Keep the split strictly inside the wire and strictly below the
    // reserved top gap; shrinking x only reduces noise, so feasibility holds.
    double x = std::min(*x_opt * (1.0 - kPlacementBackoff),
                        remaining - 2.0 * top_gap);
    NBUF_ASSERT_MSG(x > -1e-9, "no room left on wire for a forced buffer");
    if (x <= 0.0) {
      // Slack exactly exhausted at the current bottom: the buffer must sit
      // at the bottom node itself (only possible between wires, i.e. at an
      // internal node — base == 0).
      NBUF_ASSERT_MSG(base == 0.0, "back-to-back forced buffers");
      s.plan = arena.buffer(s.plan, PlannedBuffer{below, 0.0, bid});
    } else {
      s.plan = arena.buffer(s.plan, PlannedBuffer{below, base + x, bid});
      base += x;
    }
    ++s.buffers;
    s.current = 0.0;
    s.noise_slack = nm_b;
  }
}

}  // namespace nbuf::core::detail
