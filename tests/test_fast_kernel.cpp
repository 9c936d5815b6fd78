// Fast-kernel lockdown suite.
//
// The fast kernel runs on the reference kernel's VgCand lists, and its hot
// loops are the list sweeps of core/cand_sweeps.hpp. Two contracts pin it
// down:
//
//  * Differential: the fast kernel must stay bit-identical to the
//    reference (seed) kernel — same slack bits, placements, per_count
//    table, legacy DP counters — across 204 generated nets x random
//    libraries of size {1, 8, 64} x inverting fractions {0, 0.5} x the
//    full six-variant option cycle. Every fast run keeps check_invariants
//    on, so the sweep doubles as the property corpus for the (load asc,
//    slack desc) staircase invariant over every list.
//  * Tail loops: a fixed corpus (tests/data/sweeps/, lengths 0 through 9)
//    driven straight through each sweep of core/cand_sweeps.hpp and checked
//    against in-test naive versions, field by field with memcmp.
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
#include <string>
#include <vector>

#include "common/random_library.hpp"
#include "common/test_nets.hpp"
#include "common/vg_compare.hpp"
#include "core/cand_sweeps.hpp"
#include "core/vanginneken.hpp"
#include "core/vg_kernel.hpp"
#include "netgen/netgen.hpp"
#include "seg/segment.hpp"
#include "util/stats.hpp"

namespace {

using namespace nbuf;
namespace sweeps = core::detail::sweeps;
using test::expect_identical;

core::VgResult run_kernel(const rct::RoutingTree& segmented,
                          const lib::BufferLibrary& library,
                          core::VgOptions opt, core::VgKernel kernel) {
  opt.kernel = kernel;
  return core::optimize(segmented, library, opt);
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

using core::detail::CandList;
using core::detail::VgCand;

CandList load_corpus(std::size_t len) {
  const std::string path =
      std::string(NBUF_SWEEPS_DATA_DIR) + "/len" + std::to_string(len) + ".txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  CandList list;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    VgCand c;
    if (!(row >> c.load)) continue;  // blank or '#' comment line
    row >> c.slack >> c.current >> c.noise_slack >> c.dhat;
    list.push_back(c);
  }
  EXPECT_EQ(list.size(), len) << path;
  return list;
}

// Field-by-field bitwise equality of two candidates (NaN-safe, -0.0-strict).
void expect_cand_identical(const VgCand& a, const VgCand& b) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  EXPECT_TRUE(same(a.load, b.load));
  EXPECT_TRUE(same(a.slack, b.slack));
  EXPECT_TRUE(same(a.current, b.current));
  EXPECT_TRUE(same(a.noise_slack, b.noise_slack));
  EXPECT_TRUE(same(a.dhat, b.dhat));
}

void expect_lists_identical(const CandList& a, const CandList& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    expect_cand_identical(a[i], b[i]);
    EXPECT_EQ(a[i].plan, b[i].plan);
  }
}

// A copy of `src` whose candidates carry distinct one-buffer plans in
// `arena` (buffer type `tag` at node i), so merged plans compare by content.
CandList with_plans(const CandList& src, core::PlanArena& arena,
                    std::uint32_t tag) {
  CandList dst = src;
  for (std::size_t i = 0; i < dst.size(); ++i)
    dst[i].plan = arena.buffer(
        core::kNullPlan,
        core::PlannedBuffer{rct::NodeId(static_cast<std::uint32_t>(i)), 0.0,
                            lib::BufferId(tag)});
  return dst;
}

// The Van Ginneken two-list merge as the paper states it: combine the
// current pair, then advance every side whose slack is the binding
// (smaller) one — both sides on a tie.
CandList naive_merge(const CandList& a, const CandList& b,
                     core::PlanArena& arena) {
  CandList out;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double qa = a[i].slack, qb = b[j].slack;
    const double q = std::min(qa, qb);
    out.push_back(VgCand{a[i].load + b[j].load, q,
                         a[i].current + b[j].current,
                         std::min(a[i].noise_slack, b[j].noise_slack),
                         std::max(a[i].dhat, b[j].dhat),
                         arena.merge(a[i].plan, b[j].plan)});
    if (qa == q) ++i;
    if (qb == q) ++j;
  }
  return out;
}

// Bitwise equality of got[from, ...) with want's values, and content
// equality of their plans through `arena`.
void expect_merged_identical(const CandList& got, std::size_t from,
                             const CandList& want,
                             const core::PlanArena& arena) {
  ASSERT_EQ(got.size(), from + want.size());
  for (std::size_t o = 0; o < want.size(); ++o) {
    SCOPED_TRACE("entry " + std::to_string(o));
    expect_cand_identical(got[from + o], want[o]);
    EXPECT_NE(got[from + o].plan, core::kNullPlan);
    EXPECT_EQ(
        core::detail::plan_compare(arena, got[from + o].plan, want[o].plan),
        0);
  }
}

// ---------------------------------------------------------------------------

TEST(FastKernel, DifferentialFuzzAgainstReferenceAcrossLibraries) {
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
      const core::VgOptions opt = test::kernel_variant(i);
      const auto fast =
          run_kernel(segmented, library, opt, core::VgKernel::Fast);
      const auto ref =
          run_kernel(segmented, library, opt, core::VgKernel::Reference);
      expect_identical(fast, ref);
      fast_total += fast.stats;
    }
  }

  // The sweep must genuinely have exercised the fast machinery: sort-free
  // prunes and converged lists where the fused prune moved nothing.
  EXPECT_LT(fast_total.prune_sorts, fast_total.prune_calls);
  EXPECT_GT(fast_total.prunes_no_move, 0u);
}

TEST(FastKernel, TailLoopCorpusSweepsMatchNaiveSemantics) {
  constexpr std::size_t kLens[] = {0, 1, 2, 3, 4, 5, 7, 8, 9};
  for (std::size_t li = 0; li < std::size(kLens); ++li) {
    const std::size_t len = kLens[li];
    SCOPED_TRACE("corpus len=" + std::to_string(len));
    const CandList base = load_corpus(len);

    {  // apply_wire: the reference kernel's extend_wire expressions, and
       // the sortedness it reports is std::is_sorted's over its result, on
       // the corpus and on the corpus reversed.
      const core::PlanArena arena;
      const auto order = [&](const VgCand& a, const VgCand& b) {
        return core::detail::cand_less(a, b, arena);
      };
      for (const CandList& in : {base, CandList(base.rbegin(), base.rend())}) {
        CandList got = in;
        const bool sorted = sweeps::apply_wire(got, 0.03, 17.5, 0.004, arena);
        CandList naive;
        for (const VgCand& c : in) {
          const double wire_delay = 0.03 * (17.5 / 2.0 + c.load);
          naive.push_back(
              VgCand{c.load + 17.5, c.slack - wire_delay, c.current + 0.004,
                     c.noise_slack - 0.03 * (0.004 / 2.0 + c.current),
                     c.dhat + wire_delay, c.plan});
        }
        expect_lists_identical(got, naive);
        EXPECT_EQ(sorted, std::is_sorted(naive.begin(), naive.end(), order));
      }
    }

    {  // prune_sweep: against an in-test naive filter over the original
       // list — drop NS < 0, then drop slacks not beating the running best.
      CandList got = base;
      const auto r = sweeps::prune_sweep(got, /*noise=*/true);
      CandList naive;
      double best = -std::numeric_limits<double>::infinity();
      std::size_t dead = 0, inferior = 0;
      for (const VgCand& c : base) {
        if (c.noise_slack < 0.0) {
          ++dead;
          continue;
        }
        if (c.slack <= best) {
          ++inferior;
          continue;
        }
        best = c.slack;
        naive.push_back(c);
      }
      EXPECT_EQ(r.dead, dead);
      EXPECT_EQ(r.inferior, inferior);
      EXPECT_EQ(r.moved, naive.size() != base.size());
      expect_lists_identical(got, naive);
    }

    {  // merge_sweep: a self-merge (an exact slack tie at every step) and
       // a merge with the next corpus list, against the in-test naive form.
      core::PlanArena arena;
      const CandList self = with_plans(base, arena, 0);
      const CandList other = with_plans(
          load_corpus(kLens[(li + 1) % std::size(kLens)]), arena, 1);
      for (const CandList* b : {&self, &other}) {
        CandList got{VgCand{-1.0, -1.0, -1.0, -1.0, -1.0, core::kNullPlan}};
        const std::size_t m = sweeps::merge_sweep(self, *b, arena, got);
        const CandList naive = naive_merge(self, *b, arena);
        ASSERT_EQ(got.size(), 1 + m);  // appended after the existing entry
        EXPECT_EQ(got[0].load, -1.0);
        if (len > 0 && b == &self) {
          EXPECT_EQ(m, len);
        }
        expect_merged_identical(got, 1, naive, arena);
      }
    }
  }
}

}  // namespace
