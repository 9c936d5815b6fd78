// figK: multi-library kernel scaling — per-node candidate work vs b.
//
// The Van Ginneken insertion step scans every bucket once per type for
// its best predecessor. The fast kernel (src/core/vg_kernel.hpp,
// select_best_predecessor + fuse_buffer_tail) keeps one record per
// (bucket, type) and folds a bucket's records into its list in one merge
// pass, so the per-type overhead should stay roughly flat in b. This
// bench measures that
// claim end-to-end: the paper-shaped 500-net batch workload is optimized
// with synthetic strength-ladder libraries of b in {1,2,4,8,16,32,64}
// types (45% inverters, lib::make_ladder_library), fast kernel timed and
// the reference kernel run as oracle on every row.
//
//   figK_library_scaling [--quick] [--out BENCH_library.json]
//
// writes {"bench", "nodes_total", "rows": [{lib_types, nets, fast_seconds,
// ref_seconds, nets_per_second, candidates_generated,
// candidates_per_node, bp_prune_calls, bp_candidates_killed,
// identical_results}, ...]} plus a summary table on stdout. The workload
// itself is generated once with the default library so every row
// optimizes the same nets.
//
// Exit 2 on a usage error or an --out path that cannot be opened, checked
// before any timed run. Pass/fail: exit 1 when any row's kernels disagree,
// or when per-node candidate work grows super-linearly in b — checked as
// per-type normalized per-net time, time(64)/64 <= 2.5x time(8)/8. The
// exact DP's state is inherently ~linear in b (every ladder type is
// Pareto-alive, so staircases hold ~b entries and the count in
// candidates_per_node grows ~b — that is the O(bn^2)), so raw wall time
// also grows ~b; what the insertion step must keep flat is the per-type
// overhead on top of that state, which is exactly what the normalized
// bound pins.
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "batch/batch.hpp"
#include "common/workload.hpp"
#include "core/tool.hpp"
#include "lib/buffer.hpp"
#include "seg/segment.hpp"

namespace {

using namespace nbuf;

struct Row {
  std::size_t lib_types = 0;
  std::size_t nets = 0;
  double fast_seconds = 0.0;
  double ref_seconds = 0.0;
  double nets_per_second = 0.0;
  std::size_t candidates = 0;
  double candidates_per_node = 0.0;
  std::size_t bp_prune_calls = 0;
  std::size_t bp_candidates_killed = 0;
  bool identical = false;
};

batch::BatchSummary run_batch(const std::vector<batch::BatchNet>& nets,
                              const lib::BufferLibrary& library,
                              core::VgKernel kernel) {
  batch::BatchOptions opt;
  opt.threads = 1;  // single-threaded: per-net times comparable down the b
                    // column without pool scheduling noise on small nets
  opt.tool.vg.kernel = kernel;
  const batch::BatchEngine engine(opt);
  return engine.run(nets, library).summary;
}

bool same_summary(const batch::BatchSummary& a,
                  const batch::BatchSummary& b) {
  return a.buffers_inserted == b.buffers_inserted &&
         a.feasible == b.feasible &&
         a.stats.candidates_generated == b.stats.candidates_generated &&
         a.stats.pruned_inferior == b.stats.pruned_inferior &&
         a.stats.pruned_infeasible == b.stats.pruned_infeasible &&
         a.stats.merged == b.stats.merged &&
         a.stats.peak_list_size == b.stats.peak_list_size;
}

Row scale_row(const std::vector<batch::BatchNet>& nets,
              std::size_t lib_types, std::size_t nodes_total) {
  const lib::BufferLibrary library =
      lib::make_ladder_library(lib_types, 0.45);
  Row row;
  row.lib_types = lib_types;
  row.nets = nets.size();
  const batch::BatchSummary fast =
      run_batch(nets, library, core::VgKernel::Fast);
  const batch::BatchSummary ref =
      run_batch(nets, library, core::VgKernel::Reference);
  row.fast_seconds = fast.wall_seconds;
  row.ref_seconds = ref.wall_seconds;
  row.nets_per_second = fast.nets_per_second();
  row.candidates = fast.stats.candidates_generated;
  row.candidates_per_node =
      nodes_total > 0 ? static_cast<double>(fast.stats.candidates_generated) /
                            static_cast<double>(nodes_total)
                      : 0.0;
  row.bp_prune_calls = fast.stats.bp_prune_calls;
  row.bp_candidates_killed = fast.stats.bp_candidates_killed;
  row.identical = same_summary(fast, ref);
  return row;
}

// The --out document: {"bench", "nodes_total", "rows": [row, ...]}.
util::JsonWriter document(const std::vector<Row>& rows,
                          std::size_t nodes_total) {
  util::JsonWriter j;
  j.begin_object();
  j.field("bench", std::string_view("figK_library_scaling"));
  j.field("nodes_total", nodes_total);
  j.key("rows");
  j.begin_array();
  for (const Row& r : rows) {
    j.begin_object();
    j.field("lib_types", r.lib_types);
    j.field("nets", r.nets);
    j.field("fast_seconds", r.fast_seconds);
    j.field("ref_seconds", r.ref_seconds);
    j.field("nets_per_second", r.nets_per_second);
    j.field("candidates_generated", r.candidates);
    j.field("candidates_per_node", r.candidates_per_node);
    j.field("bp_prune_calls", r.bp_prune_calls);
    j.field("bp_candidates_killed", r.bp_candidates_killed);
    j.field("identical_results", r.identical);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bench::TimingArgs args;
  args.out = "BENCH_library.json";
  if (const int rc = bench::parse_timing_args(argc, argv, args); rc != 0)
    return rc;

  // One workload for every row: the library under test changes, the nets
  // do not, so per-net times are directly comparable down the b column.
  const auto nets =
      bench::sized_testbench(lib::default_library(), args.quick ? 60 : 500);
  std::size_t nodes_total = 0;
  for (const batch::BatchNet& n : nets) {
    rct::RoutingTree t = n.tree;
    seg::segment(t, core::ToolOptions{}.segmenting);
    nodes_total += t.node_count();
  }

  std::vector<Row> rows;
  for (const std::size_t b : {1, 2, 4, 8, 16, 32, 64})
    rows.push_back(scale_row(nets, b, nodes_total));

  std::printf("== figK: library scaling (fast kernel, reference oracle) ==\n");
  std::printf("%-6s %-6s %-10s %-10s %-10s %-12s %-10s %s\n", "b", "nets",
              "fast s", "ref s", "nets/s", "cands/node", "bp preps",
              "identical");
  bool all_identical = true;
  double per_net_8 = 0.0, per_net_64 = 0.0;
  for (const Row& r : rows) {
    all_identical = all_identical && r.identical;
    if (r.lib_types == 8) per_net_8 = r.fast_seconds;
    if (r.lib_types == 64) per_net_64 = r.fast_seconds;
    std::printf("%-6zu %-6zu %-10.4f %-10.4f %-10.1f %-12.2f %-10zu %s\n",
                r.lib_types, r.nets, r.fast_seconds, r.ref_seconds,
                r.nets_per_second, r.candidates_per_node, r.bp_prune_calls,
                r.identical ? "yes" : "NO");
  }
  if (!bench::write_document(args, document(rows, nodes_total))) return 2;

  int rc = 0;
  if (!all_identical) {
    std::printf("FAIL: kernels disagree\n");
    rc = 1;
  }
  if (per_net_8 > 0.0 && per_net_64 > 0.0) {
    const double raw = per_net_64 / per_net_8;
    const double per_type = (per_net_64 / 64.0) / (per_net_8 / 8.0);
    std::printf("64-type / 8-type batch time: %.2fx raw, %.2fx per type "
                "(bound 2.5x per type)\n",
                raw, per_type);
    if (per_type > 2.5) {
      std::printf("FAIL: per-type cost grows %.2fx from 8 to 64 types\n",
                  per_type);
      rc = 1;
    }
  }
  return rc;
}
