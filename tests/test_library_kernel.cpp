// Randomized-library differential fuzz (PR 6).
//
// The multi-type kernel work (per-type best-predecessor insertion, polarity
// phases, dominated-at-birth skip) must not depend on WHICH library it
// runs against. This suite fuzzes the library axis the way test_vg_kernel
// fuzzes the net axis:
//
//  * Differential: >= 200 generated nets, each optimized under every
//    (library size, inverting fraction) in {1, 3, 8, 17, 64} x {0, 0.5}
//    with seeded random libraries (tests/common/random_library.hpp) and
//    the full option-variant cycle. Fast and Reference kernels must be
//    bit-identical on every pair — same slack bits, placements, per_count
//    table, and legacy DP counters.
//  * Schedule independence: the same fuzz workload through BatchEngine at
//    1 and at 4 threads must reproduce every per-net result and counter
//    exactly. This test is the reason the suite runs in the TSan lane.
//
// Everything here is seeded; there is no run-to-run variation.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "batch/batch.hpp"
#include "common/random_library.hpp"
#include "common/test_nets.hpp"
#include "common/vg_compare.hpp"
#include "core/vanginneken.hpp"
#include "lib/buffer.hpp"
#include "netgen/netgen.hpp"
#include "seg/segment.hpp"
#include "util/stats.hpp"

namespace {

using namespace nbuf;
using test::expect_identical;

core::VgResult run_kernel(const rct::RoutingTree& segmented,
                          const lib::BufferLibrary& library,
                          core::VgOptions opt, core::VgKernel kernel) {
  opt.kernel = kernel;
  return core::optimize(segmented, library, opt);
}

TEST(LibraryKernel, DifferentialFuzzAcrossLibrarySizesAndPolarities) {
  // The nets are generated once (against the default library — the
  // workload shape does not depend on the library under test) and reused
  // for every fuzzed library, so a failure names a reproducible
  // (net, library) pair.
  netgen::TestbenchOptions gen;
  gen.net_count = 204;
  gen.seed = 61403;
  const auto nets = netgen::generate_testbench(lib::default_library(), gen);
  ASSERT_EQ(nets.size(), 204u);

  const std::size_t sizes[] = {1, 3, 8, 17, 64};
  const double fractions[] = {0.0, 0.5};
  std::size_t combo = 0;
  bool any_inverting_used = false;
  for (const std::size_t b : sizes) {
    for (const double frac : fractions) {
      const lib::BufferLibrary library =
          test::random_library(0xF022 + 977 * combo, b, frac);
      ++combo;
      SCOPED_TRACE("library b=" + std::to_string(b) +
                   " inverting=" + std::to_string(library.inverting_count()));
      ASSERT_EQ(library.size(), b);
      if (frac == 0.0) {
        ASSERT_EQ(library.inverting_count(), 0u);
      }

      util::VgStats fast_total;
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
        for (const auto& [node, type] : fast.buffers.entries())
          any_inverting_used =
              any_inverting_used || library.at(type).inverting;
      }

      // The fast kernel must actually have gone through the
      // best-predecessor path, and report the library it saw.
      EXPECT_EQ(fast_total.lib_types, b);
      EXPECT_GT(fast_total.bp_prune_calls, 0u);
    }
  }
  // The half-inverting libraries must genuinely exercise the polarity
  // phases: somewhere in the sweep a chosen solution uses inverters (in
  // pairs — sinks demand positive phase). Not required of every single
  // library (a small one may never find an inverter pair profitable).
  EXPECT_TRUE(any_inverting_used);
}

TEST(LibraryKernel, SingleTypeRandomLibraryMatchesAcrossKernels) {
  // b=1 degenerates the best-predecessor walk to a single query; make sure
  // the degenerate path is hit head-on with a chain-heavy net, not only
  // inside the sweep above.
  const lib::BufferLibrary library = test::random_library(0xB001, 1, 0.0);
  const auto net = test::long_two_pin(14000.0);
  rct::RoutingTree segmented = net;
  seg::segment(segmented, {500.0});
  for (std::size_t v = 0; v < 6; ++v) {
    SCOPED_TRACE("variant " + std::to_string(v));
    const core::VgOptions opt = test::kernel_variant(v);
    const auto fast =
        run_kernel(segmented, library, opt, core::VgKernel::Fast);
    const auto ref =
        run_kernel(segmented, library, opt, core::VgKernel::Reference);
    expect_identical(fast, ref);
  }
}

TEST(LibraryKernel, BatchScheduleIndependentOnRandomLibrary) {
  // The TSan-lane teeth: the same fuzzed 17-type half-inverting library
  // through the batch engine at 1 and at 4 threads. Results and the
  // aggregated deterministic counters must reproduce exactly (the engine
  // writes results[i] by input index; nothing may depend on schedule).
  netgen::TestbenchOptions gen;
  gen.net_count = 96;
  gen.seed = 4403;
  const auto nets =
      batch::from_generated(netgen::generate_testbench(lib::default_library(), gen));
  const lib::BufferLibrary library = test::random_library(0xA11CE, 17, 0.5);

  batch::BatchOptions serial;
  serial.threads = 1;
  batch::BatchOptions pooled;
  pooled.threads = 4;
  const batch::BatchResult a = batch::BatchEngine(serial).run(nets, library);
  const batch::BatchResult b = batch::BatchEngine(pooled).run(nets, library);

  ASSERT_EQ(a.results.size(), nets.size());
  ASSERT_EQ(b.results.size(), nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    SCOPED_TRACE(nets[i].name);
    expect_identical(a.results[i].vg, b.results[i].vg);
  }
  EXPECT_EQ(a.summary.feasible, b.summary.feasible);
  EXPECT_EQ(a.summary.buffers_inserted, b.summary.buffers_inserted);
  EXPECT_EQ(a.summary.timing_met, b.summary.timing_met);
  EXPECT_TRUE(a.summary.stats.same_counters(b.summary.stats));
  EXPECT_EQ(a.summary.stats.lib_types, 17u);
}

TEST(LibraryKernel, BestPredecessorCountersSplitByKernel) {
  // bp_prune_calls / bp_candidates_killed are fast-kernel path counters
  // (the reference kernel books none); lib_types is shared.
  const lib::BufferLibrary library = test::random_library(0x5EED, 17, 0.5);
  const auto net = test::long_two_pin(12000.0);
  rct::RoutingTree segmented = net;
  seg::segment(segmented, {500.0});
  core::VgOptions opt;

  const auto fast =
      run_kernel(segmented, library, opt, core::VgKernel::Fast);
  EXPECT_EQ(fast.stats.lib_types, 17u);
  EXPECT_GT(fast.stats.bp_prune_calls, 0u);

  const auto ref =
      run_kernel(segmented, library, opt, core::VgKernel::Reference);
  EXPECT_EQ(ref.stats.lib_types, 17u);
  EXPECT_EQ(ref.stats.bp_prune_calls, 0u);
  EXPECT_EQ(ref.stats.bp_candidates_killed, 0u);
}

}  // namespace
