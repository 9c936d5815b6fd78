// SoA lockdown suite.
//
// The fast kernel's candidate storage is structure-of-arrays
// (core/soa.hpp) and its hot loops are the lane sweeps of
// core/soa_sweeps.hpp. Two contracts pin that refactor down:
//
//  * Differential: the SoA fast kernel must stay bit-identical to the
//    reference (seed) kernel — same slack bits, placements, per_count
//    table, legacy DP counters — across 204 generated nets x random
//    libraries of size {1, 8, 64} x inverting fractions {0, 0.5} x the
//    full six-variant option cycle. Every fast run keeps check_invariants
//    on, so the sweep doubles as the property corpus for the (load asc,
//    slack desc) staircase invariant over every SoA block.
//  * Tail loops: a fixed corpus (tests/data/soa/, lengths 0 through 9)
//    driven straight through each sweep of core/soa_sweeps.hpp and checked
//    against in-test naive versions, lane-by-lane with memcmp.
//
// Everything is seeded; there is no run-to-run variation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random_library.hpp"
#include "common/test_nets.hpp"
#include "common/vg_compare.hpp"
#include "core/soa.hpp"
#include "core/soa_sweeps.hpp"
#include "core/vanginneken.hpp"
#include "core/vg_kernel.hpp"
#include "lib/wire.hpp"
#include "netgen/netgen.hpp"
#include "seg/segment.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace {

using namespace nbuf;
using namespace nbuf::units;
namespace soa = core::detail::soa;
using test::expect_identical;

core::VgResult run_kernel(const rct::RoutingTree& segmented,
                          const lib::BufferLibrary& library,
                          core::VgOptions opt, core::VgKernel kernel) {
  opt.kernel = kernel;
  return core::optimize(segmented, library, opt);
}

// The test_vg_kernel option cycle, parameterized on the library size so
// the buffer-cost variant stays valid for every fuzzed library. Invariant
// checking stays on everywhere: the fast kernel re-verifies every SoA
// block after each DP step.
core::VgOptions variant(std::size_t which, std::size_t lib_size) {
  core::VgOptions opt;
  opt.check_invariants = true;
  switch (which % 6) {
    case 0:  // BuffOpt shape: noise-constrained, best slack
      break;
    case 1:  // DelayOpt baseline
      opt.noise_constraints = false;
      break;
    case 2:  // Problem 3 objective
      opt.objective = core::VgObjective::MinBuffersMeetingConstraints;
      break;
    case 3:  // simultaneous wire sizing (the sorting fork path)
      opt.wire_widths = lib::default_wire_widths();
      break;
    case 4:  // Lillis buffer costs: bucket index = total cost
      opt.buffer_costs.assign(lib_size, 1);
      for (std::size_t i = 0; i < opt.buffer_costs.size(); i += 2)
        opt.buffer_costs[i] = 2;
      break;
    case 5:  // slew-limited, delay-only
      opt.noise_constraints = false;
      opt.max_slew = 150.0 * ps;
  }
  return opt;
}

// The fuzzed library axis of this suite: {1, 8, 64} x {all-buffer,
// half-inverting}, seeded per combo.
struct LibCombo {
  std::size_t size;
  double fraction;
};
constexpr LibCombo kCombos[] = {{1, 0.0},  {1, 0.5},  {8, 0.0},
                                {8, 0.5},  {64, 0.0}, {64, 0.5}};

lib::BufferLibrary combo_library(std::size_t idx) {
  return test::random_library(0x50A0 + 977 * idx, kCombos[idx].size,
                              kCombos[idx].fraction);
}

std::vector<netgen::GeneratedNet> fuzz_nets() {
  netgen::TestbenchOptions gen;
  gen.net_count = 204;
  gen.seed = 52807;
  return netgen::generate_testbench(lib::default_library(), gen);
}

// ---------------------------------------------------------------------------
// Corpus plumbing for the tail-loop sweeps.

core::SoAList load_corpus(std::size_t len) {
  const std::string path =
      std::string(NBUF_SOA_DATA_DIR) + "/len" + std::to_string(len) + ".txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  core::SoAList list;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    double load = 0.0, slack = 0.0, current = 0.0, ns = 0.0, dhat = 0.0;
    if (!(row >> load)) continue;  // blank or '#' comment line
    row >> slack >> current >> ns >> dhat;
    list.push_back(load, slack, current, ns, dhat, core::kNullPlan);
  }
  EXPECT_EQ(list.size(), len) << path;
  return list;
}

core::SoAList copy_list(const core::SoAList& src) {
  core::SoAList dst;
  for (std::size_t i = 0; i < src.size(); ++i)
    dst.push_back(src.load()[i], src.slack()[i], src.current()[i],
                  src.noise_slack()[i], src.dhat()[i], src.plan()[i]);
  return dst;
}

// Lane-by-lane bitwise equality over the first n elements of both lists.
void expect_lanes_identical(const core::SoAList& a, const core::SoAList& b) {
  ASSERT_EQ(a.size(), b.size());
  const std::size_t n = a.size();
  if (n == 0) return;  // empty lists may hold null lanes; memcmp forbids them
  EXPECT_EQ(std::memcmp(a.load(), b.load(), n * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(a.slack(), b.slack(), n * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(a.current(), b.current(), n * sizeof(double)), 0);
  EXPECT_EQ(
      std::memcmp(a.noise_slack(), b.noise_slack(), n * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(a.dhat(), b.dhat(), n * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(a.plan(), b.plan(), n * sizeof(core::PlanRef)), 0);
}

// ---------------------------------------------------------------------------

TEST(SoAKernel, DifferentialFuzzAgainstReferenceAcrossLibraries) {
  const auto nets = fuzz_nets();
  ASSERT_EQ(nets.size(), 204u);

  util::VgStats fast_total;
  for (std::size_t combo = 0; combo < std::size(kCombos); ++combo) {
    const lib::BufferLibrary library = combo_library(combo);
    SCOPED_TRACE("library b=" + std::to_string(kCombos[combo].size) +
                 " inverting=" + std::to_string(library.inverting_count()));
    for (std::size_t i = 0; i < nets.size(); ++i) {
      SCOPED_TRACE(nets[i].name + " variant " + std::to_string(i % 6));
      rct::RoutingTree segmented = nets[i].tree;
      seg::segment(segmented, {500.0});
      const core::VgOptions opt = variant(i, kCombos[combo].size);
      const auto fast =
          run_kernel(segmented, library, opt, core::VgKernel::Fast);
      const auto ref =
          run_kernel(segmented, library, opt, core::VgKernel::Reference);
      expect_identical(fast, ref);
      fast_total += fast.stats;
    }
  }

  // The sweep must genuinely have exercised the SoA machinery: lazy wire
  // flushes over lanes, recycled lane blocks, and converged lists where
  // the fused prune moved nothing.
  EXPECT_GT(fast_total.soa_flush_elems, 0u);
  EXPECT_GT(fast_total.pool_reuses, 0u);
  EXPECT_GT(fast_total.soa_prunes_no_move, 0u);
}

TEST(SoAKernel, TailLoopCorpusSweepsMatchNaiveSemantics) {
  for (const std::size_t len : {0, 1, 2, 3, 4, 5, 7, 8, 9}) {
    SCOPED_TRACE("corpus len=" + std::to_string(len));
    const core::SoAList base = load_corpus(len);

    {  // apply_wire: the reference kernel's extend_wire expressions.
      core::SoAList got = copy_list(base);
      soa::apply_wire(got, 0.03, 17.5, 0.004);
      core::SoAList naive;
      for (std::size_t i = 0; i < base.size(); ++i) {
        const double wire_delay = 0.03 * (17.5 / 2.0 + base.load()[i]);
        naive.push_back(base.load()[i] + 17.5, base.slack()[i] - wire_delay,
                        base.current()[i] + 0.004,
                        base.noise_slack()[i] -
                            0.03 * (0.004 / 2.0 + base.current()[i]),
                        base.dhat()[i] + wire_delay, base.plan()[i]);
      }
      expect_lanes_identical(got, naive);
    }

    {  // prune_sweep: against an in-test naive filter over the original
       // list — drop NS < 0, then drop slacks not beating the running best.
      core::SoAList got = copy_list(base);
      const auto r = soa::prune_sweep(got, /*noise=*/true);
      core::SoAList naive;
      double best = -std::numeric_limits<double>::infinity();
      std::size_t dead = 0, inferior = 0;
      for (std::size_t i = 0; i < base.size(); ++i) {
        if (base.noise_slack()[i] < 0.0) {
          ++dead;
          continue;
        }
        if (base.slack()[i] <= best) {
          ++inferior;
          continue;
        }
        best = base.slack()[i];
        naive.push_back(base.load()[i], base.slack()[i], base.current()[i],
                        base.noise_slack()[i], base.dhat()[i],
                        base.plan()[i]);
      }
      EXPECT_EQ(r.dead, dead);
      EXPECT_EQ(r.inferior, inferior);
      EXPECT_EQ(r.moved, naive.size() != base.size());
      expect_lanes_identical(got, naive);
    }

    {  // emit_pairs + merge_fill: a self-merge emits at least the list, and
       // every pair combines as the reference merge does.
      const core::CandSpan span = base.span();
      std::vector<std::uint32_t> ia, jb;
      const std::size_t m = soa::emit_pairs(span, span, ia, jb);
      core::SoAList got;
      soa::merge_fill(span, span, ia.data(), jb.data(), m, got);
      ASSERT_EQ(got.size(), m);
      if (len > 0) {
        EXPECT_GE(m, len);
      }
      core::SoAList naive;
      for (std::size_t o = 0; o < m; ++o) {
        const std::uint32_t i = ia[o], j = jb[o];
        naive.push_back(span.load[i] + span.load[j],
                        std::min(span.slack[i], span.slack[j]),
                        span.current[i] + span.current[j],
                        std::min(span.noise_slack[i], span.noise_slack[j]),
                        std::max(span.dhat[i], span.dhat[j]), core::kNullPlan);
        got.plan()[o] = core::kNullPlan;  // the caller's lane, left unfilled
      }
      expect_lanes_identical(got, naive);
    }

    {  // gather: one permutation (reversal) through all six lanes.
      std::vector<std::uint32_t> perm(base.size());
      for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = static_cast<std::uint32_t>(perm.size() - 1 - i);
      core::SoAList got;
      soa::gather(base, perm.data(), perm.size(), got);
      ASSERT_EQ(got.size(), base.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        const std::size_t j = base.size() - 1 - i;
        EXPECT_EQ(got.load()[i], base.load()[j]);
        EXPECT_EQ(got.slack()[i], base.slack()[j]);
        EXPECT_EQ(got.plan()[i], base.plan()[j]);
      }
    }
  }
}

TEST(SoAKernel, SoAListAlignmentGrowthAndPoolReuse) {
  core::SoAList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.capacity(), 0u);

  // Push through several growth doublings; contents must survive each
  // relocation exactly and every lane must stay 64-byte aligned.
  for (std::size_t i = 0; i < 100; ++i)
    list.push_back(1.0 + 0.125 * static_cast<double>(i),
                   -3.5 * static_cast<double>(i), 0.001 * static_cast<double>(i),
                   0.5 - 0.0625 * static_cast<double>(i),
                   7.0 + static_cast<double>(i),
                   static_cast<core::PlanRef>(i));
  ASSERT_EQ(list.size(), 100u);
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % core::SoAList::kAlign == 0;
  };
  EXPECT_TRUE(aligned(list.load()));
  EXPECT_TRUE(aligned(list.slack()));
  EXPECT_TRUE(aligned(list.current()));
  EXPECT_TRUE(aligned(list.noise_slack()));
  EXPECT_TRUE(aligned(list.dhat()));
  EXPECT_TRUE(aligned(list.plan()));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(list.load()[i], 1.0 + 0.125 * static_cast<double>(i));
    EXPECT_EQ(list.slack()[i], -3.5 * static_cast<double>(i));
    EXPECT_EQ(list.plan()[i], static_cast<core::PlanRef>(i));
  }

  // Prefix views share the lane pointers.
  const core::CandSpan prefix = list.span(10);
  EXPECT_EQ(prefix.n, 10u);
  EXPECT_EQ(prefix.load, list.load());
  EXPECT_EQ(prefix.plan, list.plan());

  // Pool round trip: a released block comes back cleared but with its
  // capacity (and its allocation) intact; an empty pool hands out
  // capacity-0 lists and never counts a reuse.
  core::SoAPool pool;
  core::SoAList fresh = pool.acquire();
  EXPECT_EQ(fresh.capacity(), 0u);
  EXPECT_EQ(pool.reuses(), 0u);
  pool.release(std::move(fresh));  // capacity 0: dropped, not pooled

  const std::size_t cap = list.capacity();
  pool.release(std::move(list));
  core::SoAList back = pool.acquire();
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(back.size(), 0u);
  EXPECT_EQ(back.capacity(), cap);
}

TEST(SoAKernel, CorruptedSoAViewIsCaughtByStructuralChecks) {
  // The SoA overload of detail::verify_cand_list — what the fast kernel
  // runs over every block after each DP step (contract level 2 or
  // check_invariants) — must name each corruption, mirroring the AoS
  // corruption cases of test_vg_kernel.
  core::VgOptions opt;  // noise constraints and pruning default on
  core::PlanArena arena;

  core::SoAList good;
  good.push_back(1.0, 2.0, 0.0, 0.5, 0.0, core::kNullPlan);
  good.push_back(2.0, 3.0, 0.0, 0.6, 0.0, core::kNullPlan);
  EXPECT_NO_THROW(core::detail::verify_cand_list(good.span(), opt, arena));

  // Lost (load asc, slack desc) sort order.
  core::SoAList unsorted;
  unsorted.push_back(2.0, 3.0, 0.0, 0.6, 0.0, core::kNullPlan);
  unsorted.push_back(1.0, 2.0, 0.0, 0.5, 0.0, core::kNullPlan);
  EXPECT_THROW(core::detail::verify_cand_list(unsorted.span(), opt, arena),
               std::logic_error);

  // Sorted, but a dominated survivor: load rises while slack falls, so the
  // strict Pareto staircase is broken.
  core::SoAList dominated = copy_list(good);
  dominated.slack()[1] = 1.0;
  EXPECT_THROW(core::detail::verify_cand_list(dominated.span(), opt, arena),
               std::logic_error);

  // A dead candidate (negative noise slack) under noise constraints.
  core::SoAList dead = copy_list(good);
  dead.noise_slack()[1] = -0.1;
  EXPECT_THROW(core::detail::verify_cand_list(dead.span(), opt, arena),
               std::logic_error);
  // ...which is legal in DelayOpt mode (noise ignored).
  core::VgOptions delayopt = opt;
  delayopt.noise_constraints = false;
  EXPECT_NO_THROW(
      core::detail::verify_cand_list(dead.span(), delayopt, arena));
}

}  // namespace
