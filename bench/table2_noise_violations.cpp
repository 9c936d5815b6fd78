// Table II reproduction: noise violations before and after BuffOpt, as seen
// by the Devgan-metric tool (BuffOpt itself) and by the detailed
// simulation-based analyzer (our 3dnoise substitute).
//
// Paper row:        before BuffOpt   after BuffOpt
//   BuffOpt (metric)     423              0
//   3dnoise (golden)     386              0
// and every 3dnoise-flagged net was also metric-flagged (the metric is a
// conservative upper bound).
#include <cstdio>

#include "common/verdict.hpp"
#include "common/workload.hpp"
#include "core/tool.hpp"
#include "sim/golden.hpp"
#include "util/table.hpp"

int main() {
  using namespace nbuf;

  const auto library = lib::default_library();
  const auto nets = bench::paper_testbench(library);
  const auto gopt = sim::golden_options_from(lib::default_technology());

  std::size_t metric_before = 0, golden_before = 0;
  std::size_t metric_after = 0, golden_after = 0;
  std::size_t golden_not_metric = 0;

  for (const auto& net : nets) {
    const auto res = core::run_buffopt(net.tree, library);
    const bool m_before = res.noise_before.violation_count > 0;
    const bool m_after = res.noise_after.violation_count > 0;
    const bool g_before =
        sim::golden_analyze_unbuffered(res.tree, gopt).violation_count > 0;
    const bool g_after =
        sim::golden_analyze(res.tree, res.vg.buffers, library, gopt)
            .violation_count > 0;
    metric_before += m_before;
    metric_after += m_after;
    golden_before += g_before;
    golden_after += g_after;
    if (g_before && !m_before) ++golden_not_metric;
  }

  std::printf(
      "== Table II: nets with noise violations before/after BuffOpt ==\n\n");
  util::Table t({"analysis", "before BuffOpt", "after BuffOpt"});
  t.add_row({"BuffOpt (Devgan metric)",
             util::Table::integer(static_cast<long long>(metric_before)),
             util::Table::integer(static_cast<long long>(metric_after))});
  t.add_row({"golden simulator (3dnoise stand-in)",
             util::Table::integer(static_cast<long long>(golden_before)),
             util::Table::integer(static_cast<long long>(golden_after))});
  std::printf("%s\n", t.render().c_str());

  std::printf("metric conservatism: %zu nets flagged by metric only "
              "(paper: 423 - 386 = 37); golden-flagged but metric-clean "
              "nets: %zu (must be 0)\n",
              metric_before - golden_before, golden_not_metric);
  std::printf("\npaper shape check: metric >= golden before; both 0 after "
              "-> %s\n",
              bench::verdict(metric_before >= golden_before &&
                                 metric_after == 0 && golden_after == 0 &&
                                 golden_not_metric == 0,
                             bench::Miss::Broken));
  return bench::verdict_exit_code();
}
