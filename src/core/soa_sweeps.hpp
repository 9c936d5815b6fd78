// The lane sweeps of the fast Van Ginneken kernel's three list steps (wire
// update, fused dead+Pareto prune, two-list merge) plus the permutation
// gather, factored out of vanginneken_fast.cpp so tests/test_soa_kernel can
// drive them directly over the tail-loop regression corpus.
//
// Every loop here performs the reference kernel's exact IEEE operations per
// element, in the same order, so the fast kernel stays bit-identical to it
// (both kernel TUs pin -ffp-contract=off so no codegen path fuses a
// multiply-add the other doesn't). The elementwise loops are plain loops:
// an `omp simd` dispatch over them measured ~1.0x (docs/perf.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/soa.hpp"

namespace nbuf::core::detail::soa {

// One unsized wire extension over a whole list: the reference kernel's
// exact per-candidate expressions (vanginneken.cpp extend_wire),
// elementwise over the lanes.
inline void apply_wire(SoAList& l, const double res, const double cap,
                       const double coupling) {
  double* load = l.load();
  double* slack = l.slack();
  double* current = l.current();
  double* noise_slack = l.noise_slack();
  double* dhat = l.dhat();
  for (std::size_t i = 0; i < l.size(); ++i) {
    const double wire_delay = res * (cap / 2.0 + load[i]);
    slack[i] -= wire_delay;
    dhat[i] += wire_delay;
    load[i] += cap;
    noise_slack[i] -= res * (coupling / 2.0 + current[i]);
    current[i] += coupling;
  }
}

struct PruneResult {
  std::size_t dead = 0;      // noise-dead candidates removed (NS < 0)
  std::size_t inferior = 0;  // (load, slack)-dominated candidates removed
  bool moved = false;        // whether any compaction ran
};

// The fused dead + Pareto prune over a cand_less-sorted list, the kernels'
// exact decision order per element — dead first (under noise constraints),
// then the running-best-slack dominance test — as ONE in-place scan: a
// survivor's six lane slots move together, and nothing moves at all until
// the first kill (the common case on converged lists — soa_prunes_no_move).
inline PruneResult prune_sweep(SoAList& l, bool noise) {
  const std::size_t n = l.size();
  PruneResult r;
  double* load = l.load();
  double* slack = l.slack();
  double* current = l.current();
  double* noise_slack = l.noise_slack();
  double* dhat = l.dhat();
  PlanRef* plan = l.plan();
  double best = -std::numeric_limits<double>::infinity();
  std::size_t o = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (noise && !(noise_slack[i] >= 0.0)) {  // NaN counts as dead
      ++r.dead;
      continue;
    }
    if (slack[i] <= best) {
      ++r.inferior;
      continue;
    }
    best = slack[i];
    if (o != i) {
      load[o] = load[i];
      slack[o] = slack[i];
      current[o] = current[i];
      noise_slack[o] = noise_slack[i];
      dhat[o] = dhat[i];
      plan[o] = plan[i];
    }
    ++o;
  }
  if (o != n) {
    r.moved = true;
    l.set_size(o);
  }
  return r;
}

// The Van Ginneken two-list merge of a and b, appended to dst in one pass:
// walks the two slack lanes with the reference kernel's exact advance rule
// (the side whose slack binds advances; both on an exact tie) and writes
// each pair's combination — sum / min / sum / min / max, the reference
// kernel's exact expressions — and its arena.merge plan in walk order.
// Returns the number of candidates appended (at most a.n + b.n - 1).
inline std::size_t merge_sweep(const CandSpan& a, const CandSpan& b,
                               PlanArena& arena, SoAList& dst) {
  const std::size_t base = dst.size();
  dst.reserve(base + a.n + b.n);
  double* load = dst.load();
  double* slack = dst.slack();
  double* current = dst.current();
  double* noise_slack = dst.noise_slack();
  double* dhat = dst.dhat();
  PlanRef* plan = dst.plan();
  std::size_t i = 0, j = 0, o = base;
  while (i < a.n && j < b.n) {
    load[o] = a.load[i] + b.load[j];
    slack[o] = std::min(a.slack[i], b.slack[j]);
    current[o] = a.current[i] + b.current[j];
    noise_slack[o] = std::min(a.noise_slack[i], b.noise_slack[j]);
    dhat[o] = std::max(a.dhat[i], b.dhat[j]);
    plan[o] = arena.merge(a.plan[i], b.plan[j]);
    ++o;
    if (a.slack[i] < b.slack[j]) {
      ++i;
    } else if (b.slack[j] < a.slack[i]) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  dst.set_size(o);
  return o - base;
}

// Reorders src by the index permutation `perm` into dst (cleared first) —
// one gather pass per lane. The permutation machinery (sorts, cascaded run
// merges, tail merges) works on indices and pays this single gather
// instead of repeatedly moving 48-byte structs.
inline void gather(const SoAList& src, const std::uint32_t* perm,
                   std::size_t n, SoAList& dst) {
  dst.clear();
  dst.reserve(n);
  dst.set_size(n);
  const auto lane = [&](const auto* in, auto* out) {
    for (std::size_t o = 0; o < n; ++o) out[o] = in[perm[o]];
  };
  lane(src.load(), dst.load());
  lane(src.slack(), dst.slack());
  lane(src.current(), dst.current());
  lane(src.noise_slack(), dst.noise_slack());
  lane(src.dhat(), dst.dhat());
  lane(src.plan(), dst.plan());
}

}  // namespace nbuf::core::detail::soa
