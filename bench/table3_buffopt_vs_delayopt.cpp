// Table III reproduction: noise avoidance of BuffOpt versus DelayOpt(k).
//
// Paper: DelayOpt(k) (delay-optimal with at most k buffers, k = 1..4) leaves
// noise violations on the 500-net suite no matter the k, while inserting
// more buffers than BuffOpt; BuffOpt's CPU time is lower than DelayOpt's
// because noise-dead candidates are pruned. Columns: remaining violating
// nets, total buffers inserted, candidates explored, CPU seconds.
#include <cstdio>

#include "common/verdict.hpp"
#include "common/workload.hpp"
#include "core/tool.hpp"
#include "util/table.hpp"

int main() {
  using namespace nbuf;

  const auto library = lib::default_library();
  const auto nets = bench::paper_testbench(library);

  struct Row {
    std::string name;
    std::size_t violating_nets = 0;
    std::size_t buffers = 0;
    std::size_t candidates = 0;
    double cpu = 0.0;
    std::size_t max_net_buffers = 0;
  };
  std::vector<Row> rows;

  // BuffOpt (Problem 3 objective) twice: uncapped (our synthetic workload
  // has a longer tail than the paper's PowerPC nets, which never needed
  // more than four buffers), and capped at 4 for the apples-to-apples
  // candidate/CPU comparison against DelayOpt(4).
  for (bool capped : {false, true}) {
    Row r;
    r.name = capped ? "BuffOpt(4)" : "BuffOpt";
    for (const auto& net : nets) {
      core::ToolOptions opt;
      if (capped) opt.vg.max_buffers = 4;
      const auto res = core::run_buffopt(net.tree, library, opt);
      r.violating_nets += res.noise_after.violation_count > 0 ? 1 : 0;
      r.buffers += res.vg.buffer_count;
      r.candidates += res.vg.stats.candidates_generated;
      r.cpu += res.optimize_seconds;
      r.max_net_buffers = std::max(r.max_net_buffers, res.vg.buffer_count);
    }
    rows.push_back(r);
  }
  for (std::size_t k = 1; k <= 4; ++k) {
    Row r;
    r.name = "DelayOpt(" + std::to_string(k) + ")";
    for (const auto& net : nets) {
      const auto res = core::run_delayopt(net.tree, library, k);
      r.violating_nets += res.noise_after.violation_count > 0 ? 1 : 0;
      r.buffers += res.vg.buffer_count;
      r.candidates += res.vg.stats.candidates_generated;
      r.cpu += res.optimize_seconds;
      r.max_net_buffers = std::max(r.max_net_buffers, res.vg.buffer_count);
    }
    rows.push_back(r);
  }

  std::printf("== Table III: BuffOpt vs DelayOpt(k), 500 nets ==\n\n");
  util::Table t({"algorithm", "violating nets", "buffers inserted",
                 "candidates", "CPU (s)"});
  for (const auto& r : rows)
    t.add_row({r.name,
               util::Table::integer(static_cast<long long>(r.violating_nets)),
               util::Table::integer(static_cast<long long>(r.buffers)),
               util::Table::integer(static_cast<long long>(r.candidates)),
               util::Table::num(r.cpu, 3)});
  std::printf("%s\n", t.render().c_str());

  const Row& buff = rows[0];
  const Row& buff4 = rows[1];
  const Row& d4 = rows.back();
  std::printf("max buffers BuffOpt needed on any net: %zu "
              "(paper's workload: 4)\n",
              buff.max_net_buffers);
  std::printf("\npaper shape checks:\n");
  std::printf("  BuffOpt fixes everything, DelayOpt(4) does not  -> %s\n",
              bench::verdict(buff.violating_nets == 0 &&
                             d4.violating_nets > 0));
  std::printf("  DelayOpt(4) inserts more buffers than BuffOpt   -> %s "
              "(+%lld)\n",
              bench::verdict(d4.buffers > buff.buffers),
              static_cast<long long>(d4.buffers) -
                  static_cast<long long>(buff.buffers));
  std::printf("  BuffOpt(4) explores fewer candidates than DelayOpt(4) "
              "-> %s (%zu vs %zu; CPU %.3f vs %.3f s)\n",
              bench::verdict(buff4.candidates <= d4.candidates),
              buff4.candidates, d4.candidates, buff4.cpu, d4.cpu);
  return bench::verdict_exit_code();
}
