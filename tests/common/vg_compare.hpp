// Bit-identity comparison of two VgResults and the option cycle, shared by
// the kernel differential suites (test_vg_kernel on the paper library,
// test_library_kernel and test_fast_kernel on randomized multi-type
// libraries).
//
// Every deterministic field must agree EXACTLY — slack bits, buffer
// placements, wire widths, the whole per_count table, and the legacy DP
// counters (both kernels make the same pruning decisions on the same
// candidates). serialize() renders the same fields as one byte string for
// byte-identity checks.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/vanginneken.hpp"
#include "lib/wire.hpp"
#include "rct/assignment.hpp"
#include "util/units.hpp"

namespace nbuf::test {

// The six option variants the kernel differential suites cycle over. Every
// variant keeps check_invariants on for the fast run, so the differential
// sweeps double as the largest property-test corpus.
inline core::VgOptions kernel_variant(std::size_t which) {
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
    case 4:  // BuffOpt under a binding count cap
      opt.max_buffers = 2;
      break;
    case 5:  // slew-limited, delay-only
      opt.noise_constraints = false;
      opt.max_slew = 150.0 * units::ps;
      break;
  }
  return opt;
}

inline std::vector<std::pair<std::uint32_t, std::uint32_t>> sorted_entries(
    const rct::BufferAssignment& a) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const auto& [node, type] : a.entries())
    out.emplace_back(node.value(), type.value());
  std::sort(out.begin(), out.end());
  return out;
}

inline void expect_identical(const core::VgResult& fast,
                             const core::VgResult& ref) {
  EXPECT_EQ(fast.feasible, ref.feasible);
  EXPECT_EQ(fast.timing_met, ref.timing_met);
  EXPECT_EQ(fast.slack, ref.slack);  // exact: bit-identity, no tolerance
  EXPECT_EQ(fast.buffer_count, ref.buffer_count);
  EXPECT_EQ(sorted_entries(fast.buffers), sorted_entries(ref.buffers));

  ASSERT_EQ(fast.wire_widths.size(), ref.wire_widths.size());
  for (std::size_t i = 0; i < fast.wire_widths.size(); ++i) {
    EXPECT_EQ(fast.wire_widths[i].node, ref.wire_widths[i].node);
    EXPECT_EQ(fast.wire_widths[i].width, ref.wire_widths[i].width);
  }

  ASSERT_EQ(fast.per_count.size(), ref.per_count.size());
  for (std::size_t i = 0; i < fast.per_count.size(); ++i) {
    SCOPED_TRACE("per_count[" + std::to_string(i) + "]");
    const core::CountBest& f = fast.per_count[i];
    const core::CountBest& r = ref.per_count[i];
    EXPECT_EQ(f.count, r.count);
    EXPECT_EQ(f.slack, r.slack);
    EXPECT_EQ(f.noise_slack, r.noise_slack);
    EXPECT_EQ(f.noise_ok, r.noise_ok);
    ASSERT_EQ(f.plan.size(), r.plan.size());
    for (std::size_t j = 0; j < f.plan.size(); ++j) {
      EXPECT_EQ(f.plan[j].node, r.plan[j].node);
      EXPECT_EQ(f.plan[j].dist_above, r.plan[j].dist_above);
      EXPECT_EQ(f.plan[j].type, r.plan[j].type);
    }
    ASSERT_EQ(f.wires.size(), r.wires.size());
    for (std::size_t j = 0; j < f.wires.size(); ++j) {
      EXPECT_EQ(f.wires[j].node, r.wires[j].node);
      EXPECT_EQ(f.wires[j].width, r.wires[j].width);
    }
  }

  // The legacy DP counters are part of the contract too.
  EXPECT_EQ(fast.stats.candidates_generated, ref.stats.candidates_generated);
  EXPECT_EQ(fast.stats.pruned_inferior, ref.stats.pruned_inferior);
  EXPECT_EQ(fast.stats.pruned_infeasible, ref.stats.pruned_infeasible);
  EXPECT_EQ(fast.stats.merged, ref.stats.merged);
  EXPECT_EQ(fast.stats.peak_list_size, ref.stats.peak_list_size);
}

// Byte serialization of a VgResult: every deterministic field except the
// stats, doubles by bit pattern (memcpy, not operator==, so a -0.0 vs +0.0
// or NaN-payload difference cannot hide).
inline std::string serialize(const core::VgResult& r) {
  std::string s;
  const auto put_u64 = [&s](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
  };
  const auto put_bits = [&put_u64](double d) {
    std::uint64_t b = 0;
    std::memcpy(&b, &d, sizeof b);
    put_u64(b);
  };
  s.push_back(r.feasible ? 1 : 0);
  s.push_back(r.timing_met ? 1 : 0);
  put_bits(r.slack);
  put_u64(r.buffer_count);
  for (const auto& [node, type] : sorted_entries(r.buffers)) {
    put_u64(node);
    put_u64(type);
  }
  put_u64(r.wire_widths.size());
  for (const auto& w : r.wire_widths) {
    put_u64(w.node.value());
    put_u64(w.width);
  }
  put_u64(r.per_count.size());
  for (const auto& cb : r.per_count) {
    put_u64(cb.count);
    put_bits(cb.slack);
    put_bits(cb.noise_slack);
    s.push_back(cb.noise_ok ? 1 : 0);
    put_u64(cb.plan.size());
    for (const auto& p : cb.plan) {
      put_u64(p.node.value());
      put_bits(p.dist_above);
      put_u64(p.type.value());
    }
    put_u64(cb.wires.size());
    for (const auto& w : cb.wires) {
      put_u64(w.node.value());
      put_u64(w.width);
    }
  }
  return s;
}

}  // namespace nbuf::test
