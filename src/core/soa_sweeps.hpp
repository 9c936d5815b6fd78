// The branch-light lane sweeps of the fast Van Ginneken kernel's three hot
// loops (fused dead+Pareto prune, lazy wire-offset flush, bucket-major
// merge), factored out of vanginneken_fast.cpp so tests/test_soa_kernel can
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
#include <vector>

#include "core/soa.hpp"

namespace nbuf::core::detail::soa {

// One lazy wire offset materialized over a whole list: the reference
// kernel's exact per-candidate expressions (vanginneken.cpp extend_wire),
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

// Sequential skeleton of the Van Ginneken two-list merge: walks the two
// slack lanes with the reference kernel's exact advance rule (the side
// whose slack binds advances; both on an exact tie) and records the index
// pairs. The lane arithmetic is done afterwards by merge_fill.
inline std::size_t emit_pairs(const CandSpan& a, const CandSpan& b,
                              std::vector<std::uint32_t>& ia,
                              std::vector<std::uint32_t>& jb) {
  ia.clear();
  jb.clear();
  std::size_t i = 0, j = 0;
  while (i < a.n && j < b.n) {
    ia.push_back(static_cast<std::uint32_t>(i));
    jb.push_back(static_cast<std::uint32_t>(j));
    if (a.slack[i] < b.slack[j]) {
      ++i;
    } else if (b.slack[j] < a.slack[i]) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return ia.size();
}

// Elementwise body of the merge: appends the m paired combinations to dst's
// value lanes in one pass (sum / min / min / max — the reference
// kernel's exact expressions). The plan lane of the appended range is NOT
// filled here — arena allocation is sequential and stays with the caller.
inline void merge_fill(const CandSpan& a, const CandSpan& b,
                       const std::uint32_t* ia, const std::uint32_t* jb,
                       std::size_t m, SoAList& dst) {
  const std::size_t base = dst.size();
  dst.reserve(base + m);
  dst.set_size(base + m);
  double* load = dst.load() + base;
  double* slack = dst.slack() + base;
  double* current = dst.current() + base;
  double* noise_slack = dst.noise_slack() + base;
  double* dhat = dst.dhat() + base;
  for (std::size_t o = 0; o < m; ++o) {
    const std::uint32_t i = ia[o];
    const std::uint32_t j = jb[o];
    load[o] = a.load[i] + b.load[j];
    slack[o] = std::min(a.slack[i], b.slack[j]);
    current[o] = a.current[i] + b.current[j];
    noise_slack[o] = std::min(a.noise_slack[i], b.noise_slack[j]);
    dhat[o] = std::max(a.dhat[i], b.dhat[j]);
  }
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
