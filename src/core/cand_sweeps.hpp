// The list sweeps of the fast Van Ginneken kernel's three list steps (wire
// update, fused dead+Pareto prune, two-list merge), factored out of
// vanginneken_fast.cpp so tests/test_fast_kernel can drive them directly
// over the tail-loop regression corpus.
//
// Every loop here performs the reference kernel's exact IEEE operations per
// candidate, in the same order, so the fast kernel stays bit-identical to
// it (both kernel TUs pin -ffp-contract=off so no codegen path fuses a
// multiply-add the other doesn't).
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>

#include "core/vg_kernel.hpp"

namespace nbuf::core::detail::sweeps {

// One unsized wire extension over a whole list: the reference kernel's
// exact per-candidate expressions (vanginneken.cpp extend_wire). Returns
// whether the updated list is sorted by cand_less, checked in the same pass
// (the is_sorted predicate: no entry less than its updated predecessor).
// The affine map keeps (load asc, slack desc) except where two loads round
// together, so this is almost always true.
inline bool apply_wire(CandList& l, const double res, const double cap,
                       const double coupling, const PlanArena& arena) {
  bool sorted = true;
  for (std::size_t i = 0; i < l.size(); ++i) {
    VgCand& c = l[i];
    const double wire_delay = res * (cap / 2.0 + c.load);
    c.slack -= wire_delay;
    c.dhat += wire_delay;
    c.load += cap;
    c.noise_slack -= res * (coupling / 2.0 + c.current);
    c.current += coupling;
    if (i > 0 && sorted) sorted = !cand_less(c, l[i - 1], arena);
  }
  return sorted;
}

struct PruneResult {
  std::size_t dead = 0;      // noise-dead candidates removed (NS < 0)
  std::size_t inferior = 0;  // (load, slack)-dominated candidates removed
  bool moved = false;        // whether any compaction ran
};

// The fused dead + Pareto prune over a cand_less-sorted list, the kernels'
// exact decision order per candidate — dead first (under noise
// constraints), then the running-best-slack dominance test — as ONE
// in-place scan: nothing moves at all until the first kill (the common case
// on converged lists — prunes_no_move).
inline PruneResult prune_sweep(CandList& l, bool noise) {
  PruneResult r;
  double best = -std::numeric_limits<double>::infinity();
  std::size_t o = 0;
  for (std::size_t i = 0; i < l.size(); ++i) {
    if (noise && !(l[i].noise_slack >= 0.0)) {  // NaN counts as dead
      ++r.dead;
      continue;
    }
    if (l[i].slack <= best) {
      ++r.inferior;
      continue;
    }
    best = l[i].slack;
    if (o != i) l[o] = l[i];
    ++o;
  }
  if (o != l.size()) {
    r.moved = true;
    l.resize(o);
  }
  return r;
}

// The Van Ginneken two-list merge of a and b, appended to dst in one pass:
// walks the two lists with the reference kernel's exact advance rule (the
// side whose slack binds advances; both on an exact tie) and appends each
// pair's combination — sum / min / sum / min / max, the reference kernel's
// exact expressions — and its arena.merge plan in walk order. Returns the
// number of candidates appended (at most a.size() + b.size() - 1).
inline std::size_t merge_sweep(const CandList& a, const CandList& b,
                               PlanArena& arena, CandList& dst) {
  const std::size_t base = dst.size();
  dst.reserve(base + a.size() + b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const VgCand& x = a[i];
    const VgCand& y = b[j];
    dst.push_back(VgCand{x.load + y.load, std::min(x.slack, y.slack),
                         x.current + y.current,
                         std::min(x.noise_slack, y.noise_slack),
                         std::max(x.dhat, y.dhat), arena.merge(x.plan, y.plan)});
    if (x.slack < y.slack) {
      ++i;
    } else if (y.slack < x.slack) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return dst.size() - base;
}

}  // namespace nbuf::core::detail::sweeps
