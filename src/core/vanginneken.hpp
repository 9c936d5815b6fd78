// Van Ginneken dynamic programming with the paper's extensions:
//
//  * multi-type buffer libraries with inverting + non-inverting buffers and
//    signal-polarity tracking (Lillis/Cheng/Lin);
//  * candidate lists indexed by the number of inserted buffers (Lillis),
//    giving the delay-optimal solution for EVERY buffer count k — this is
//    what lets the paper run DelayOpt(k) and solve Problem 3;
//  * noise avoidance (Algorithm 3 / BuffOpt, Figs. 10-11): candidates carry
//    (I, NS) alongside (C, q); a buffer or the driver is never committed
//    onto a candidate whose noise R_g * I exceeds its noise slack NS, and
//    candidates whose NS went negative are dead (no future gate can accept
//    them) and are pruned — the reason BuffOpt explores FEWER candidates
//    than DelayOpt.
//
// With noise_constraints = false this is exactly the DelayOpt baseline of
// Section V. Pruning is by (load, slack) only, as in the paper (Step 7);
// Theorem 5 shows this never discards the optimum for a single-type
// library.
#pragma once

#include <limits>
#include <vector>

#include "core/plan.hpp"
#include "lib/buffer.hpp"
#include "lib/wire.hpp"
#include "rct/assignment.hpp"
#include "rct/tree.hpp"
#include "util/stats.hpp"

namespace nbuf::core {

enum class VgObjective {
  // Problem 2: maximize the slack q(so) subject to noise feasibility.
  MaxSlack,
  // Problem 3: fewest buffers such that noise is clean and timing is met
  // (slack >= 0); secondarily maximize slack.
  MinBuffersMeetingConstraints,
};

// Which DP inner-loop implementation runs. Both produce bit-identical
// VgResults (same pruning semantics, same tie-break order); the fast kernel
// is the default and the reference kernel is retained as the differential-
// test oracle (tests/test_vg_kernel) and for A/B timing (bench/figI). The
// unpruned ablation (prune_candidates = false) always runs the reference
// kernel.
enum class VgKernel {
  // Li & Shi-style kernel: candidate lists keep the (load asc, slack desc)
  // sort invariant across wire extension, merge, and buffer insertion, so
  // pruning is one linear scan (std::sort only runs when the invariant is
  // genuinely broken, i.e. the wire-sizing fork path); unsized wire
  // extension is recorded as a per-node lazy offset and materialized fused
  // with the next prune; buffer insertion reads per-bucket views instead of
  // deep-copying the lists; candidate-list buffers are pooled per run.
  Fast,
  // The original seed implementation: re-sorts every list on every prune
  // and snapshots all lists at each buffer-insertion node.
  Reference,
};

// Always false: the kernels have no vectorized dispatch. Kept only because
// the benchmark's host fingerprint (perfbench/src/host.cpp) reports it.
[[nodiscard]] inline bool simd_compiled() noexcept { return false; }

struct VgOptions {
  bool noise_constraints = true;   // true = BuffOpt, false = DelayOpt
  std::size_t max_buffers = 24;    // k cap for the count-indexed lists
  VgObjective objective = VgObjective::MaxSlack;
  // Ablation knob: disable (load, slack) dominance pruning (Step 7). The
  // result is unchanged — pruning is provably safe — but candidate lists
  // grow; bench/ablA_pruning measures by how much. Runs the reference
  // kernel whatever `kernel` says.
  bool prune_candidates = true;
  // Simultaneous wire sizing (Lillis et al.): when non-empty, every wire is
  // additionally assigned one of these widths during the same DP. Width 0
  // must be the base wire; leave empty to disable.
  lib::WireWidthLibrary wire_widths;
  // Maximum allowed 10-90% transition time at any gate input (second), per
  // the single-pole estimate of elmore/slew.hpp. Buffers and the driver are
  // never committed onto a candidate whose worst downstream leaf would see
  // a slower edge; infinity disables the constraint. Like the paper's noise
  // extension, (load, slack) pruning is kept unchanged, so with multiple
  // buffer types the result is guaranteed feasible but only near-optimal.
  double max_slew = std::numeric_limits<double>::infinity();
  // The Lillis "power function" generalization: candidate lists are indexed
  // by total inserted COST rather than count. When non-empty it must have
  // one positive integer entry per library type (e.g. gate area in unit
  // cells); empty means every buffer costs 1, i.e. plain buffer counting.
  // MinBuffersMeetingConstraints then minimizes total cost, and
  // `max_buffers` caps total cost.
  std::vector<std::size_t> buffer_costs;
  // DP inner-loop implementation; results are identical either way.
  VgKernel kernel = VgKernel::Fast;
  // Both kernels re-verify the sort/Pareto/no-dead-candidate invariants of
  // every candidate list after each DP step (detail::verify_cand_list) and
  // throw on violation. O(k) per step. Runs when this is set OR when the
  // build carries full structural contracts (NBUF_CONTRACTS=2, the default
  // for Debug and sanitizer builds — see docs/quality.md).
  bool check_invariants = false;
};

// The best solution of exactly this total cost (= buffer count when no
// buffer_costs are configured).
struct CountBest {
  std::size_t count = 0;
  double slack = 0.0;       // q at the source output
  double noise_slack = 0.0; // NS at the source minus driver noise
  bool noise_ok = false;    // driver noise check passed
  std::vector<PlannedBuffer> plan;
  std::vector<PlannedWire> wires;  // non-base width choices (sizing mode)
};

struct VgResult {
  // True when the chosen solution satisfies every noise constraint (always
  // reported true in DelayOpt mode, where noise is not checked).
  bool feasible = false;
  // True when additionally slack >= 0 (timing met) — relevant to Problem 3.
  bool timing_met = false;
  rct::BufferAssignment buffers;
  std::size_t buffer_count = 0;
  // Chosen non-base wire widths (empty unless sizing was enabled).
  std::vector<PlannedWire> wire_widths;
  double slack = 0.0;
  std::vector<CountBest> per_count;  // ascending by count; only counts that
                                     // produced any candidate appear
  util::VgStats stats;  // DP-efficiency counters (Li & Shi lens)
};

// Runs the DP on `tree` (must be binary; run seg::segment first to create
// buffer sites). The returned assignment places buffers on existing
// buffer-allowed internal nodes only.
[[nodiscard]] VgResult optimize(const rct::RoutingTree& tree,
                                const lib::BufferLibrary& lib,
                                const VgOptions& options = {});

// Applies the chosen solution of `result` onto a copy of `tree`.
[[nodiscard]] rct::BufferAssignment assignment_for(
    const std::vector<PlannedBuffer>& plan);

// Rewrites the electrical values of the chosen wires in `tree` per the
// width library (length is preserved; R, C and coupling current scale).
void apply_wire_widths(rct::RoutingTree& tree,
                       const std::vector<PlannedWire>& choices,
                       const lib::WireWidthLibrary& widths);

}  // namespace nbuf::core
