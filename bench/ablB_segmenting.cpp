// Ablation A-2: wire segmenting granularity vs solution quality and runtime
// — the Alpert-Devgan tradeoff the paper leans on (footnote 3).
//
// Coarse segmenting = few candidate buffer sites = fast but suboptimal;
// fine segmenting approaches the continuous optimum at higher cost. Run on
// a 60-net slice of the standard testbench.
#include <cstdio>

#include "common/verdict.hpp"
#include "common/workload.hpp"
#include "core/tool.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace nbuf;
  using namespace nbuf::units;

  const auto library = lib::default_library();
  auto opts = bench::paper_testbench_options();
  opts.net_count = 60;
  const auto nets = netgen::generate_testbench(library, opts);

  std::printf("== Ablation A-2: segmenting granularity (60 nets) ==\n\n");
  util::Table t({"segment (um)", "buffer sites", "violations left",
                 "mean delay (ps)", "buffers", "CPU (s)"});
  double prev_delay = 0.0;
  bool monotone = true;
  for (double seg_len : {4000.0, 2000.0, 1000.0, 500.0, 250.0, 125.0}) {
    std::size_t sites = 0, violations = 0, buffers = 0;
    double delay_sum = 0.0, cpu = 0.0;
    for (const auto& net : nets) {
      core::ToolOptions opt;
      opt.segmenting.max_segment_length = seg_len;
      const auto res = core::run_buffopt(net.tree, library, opt);
      sites += res.tree.node_count() - net.tree.node_count();
      violations += res.noise_after.violation_count > 0 ? 1 : 0;
      buffers += res.vg.buffer_count;
      delay_sum += res.timing_after.max_delay;
      cpu += res.optimize_seconds;
    }
    const double mean_delay = delay_sum / static_cast<double>(nets.size());
    t.add_row({util::Table::num(seg_len, 0),
               util::Table::integer(static_cast<long long>(sites)),
               util::Table::integer(static_cast<long long>(violations)),
               util::Table::num(mean_delay / ps, 1),
               util::Table::integer(static_cast<long long>(buffers)),
               util::Table::num(cpu, 3)});
    if (prev_delay > 0.0 && mean_delay > prev_delay * 1.02) monotone = false;
    prev_delay = mean_delay;
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper shape check: finer segmenting -> better-or-equal delay "
              "at higher CPU -> %s\n",
              bench::verdict(monotone));
  return bench::verdict_exit_code();
}
