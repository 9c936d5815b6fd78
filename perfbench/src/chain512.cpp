// chain512: seeded two-pin chains of 512 buffer sites, each optimized as
// BuffOpt and as DelayOpt(24) — the Table III pairing — where the Van
// Ginneken DP is almost all of the time and candidate lists are large.
//
// One operation is one chain through both modes. Each timed round runs
//   A  kAPasses passes over every chain on a batch::parallel_for_index pool
//      at P threads; each chain timed on its worker -> nets_per_s and the
//      latency samples of req_p50_ms / req_p99_ms
//   S  signoff::run_workload on the last A pass's BuffOpt results at P
//                                                   -> signoff_nets_per_s
//      (A + S wall: optimize + signoff)
//   B  one pass at 1 thread                        -> nets_per_s_1t
// Chains are in-memory trees: there is no parse on the timed path.
#include <algorithm>

#include "bench.hpp"
#include "core/tool.hpp"
#include "inputs.hpp"
#include "lib/technology.hpp"
#include "pipeline.hpp"
#include "steiner/builders.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace perfbench {

using namespace nbuf;
using namespace nbuf::units;

namespace {

constexpr std::size_t kDelayOptBuffers = 24;
constexpr int kAPasses = 6;

struct Pass {
  std::vector<core::ToolResult> buffopt;
  std::vector<core::ToolResult> delayopt;
  double wall = 0.0;
};

Pass optimize_chains(const std::vector<batch::BatchNet>& chains,
                     const lib::BufferLibrary& lib, std::size_t threads,
                     core::VgKernel kernel, std::vector<double>* latency_ms) {
  const std::size_t n = chains.size();
  Pass p;
  p.buffopt.resize(n);
  p.delayopt.resize(n);
  std::vector<double> lat(n);
  core::ToolOptions tool;
  tool.segmenting = {kChainSegmentUm};
  tool.vg.kernel = kernel;
  const auto t0 = Clock::now();
  batch::parallel_for_index(n, threads, [&](std::size_t i) {
    const auto t = Clock::now();
    p.buffopt[i] = core::run_buffopt(chains[i].tree, lib, tool);
    p.delayopt[i] =
        core::run_delayopt(chains[i].tree, lib, kDelayOptBuffers, tool);
    lat[i] = seconds_since(t) * 1e3;
  });
  p.wall = seconds_since(t0);
  if (latency_ms != nullptr)
    latency_ms->insert(latency_ms->end(), lat.begin(), lat.end());
  return p;
}

std::size_t count_mismatches(const Pass& a, const Pass& b, Compare how) {
  auto bad = mismatches(a.buffopt, b.buffopt, how);
  const auto bad_d = mismatches(a.delayopt, b.delayopt, how);
  bad.insert(bad.end(), bad_d.begin(), bad_d.end());
  std::sort(bad.begin(), bad.end());
  return static_cast<std::size_t>(
      std::unique(bad.begin(), bad.end()) - bad.begin());
}

}  // namespace

std::vector<batch::BatchNet> make_chains(const RunConfig& cfg,
                                         const lib::BufferLibrary& lib) {
  util::Rng rng(sub_seed(cfg.seed, 1));
  const lib::Technology tech = lib::default_technology();
  const double length =
      kChainSegmentUm * static_cast<double>(cfg.scale.chain_sites);
  core::ToolOptions tool;
  tool.segmenting = {kChainSegmentUm};
  std::vector<batch::BatchNet> chains;
  chains.reserve(cfg.scale.chains);
  for (std::size_t i = 0; i < cfg.scale.chains; ++i) {
    // Moderate spreads: a chain's DP cost follows its parameters, and a
    // 24-chain pass should cost about the same for every seed.
    rct::Driver drv{"drv", rng.log_uniform(100.0, 200.0),
                    rng.uniform(25.0, 35.0) * ps};
    rct::SinkInfo sink;
    sink.name = "s";
    sink.cap = rng.uniform(10.0, 20.0) * fF;
    sink.noise_margin = rng.uniform(0.7, 0.8);
    const double headroom = rng.uniform(1.08, 1.16);
    rct::RoutingTree tree = steiner::make_two_pin(length, drv, sink, tech);
    // With RAT 0 the DelayOpt slack is minus the delay-optimal arrival.
    const double arrival =
        -core::run_delayopt(tree, lib, kDelayOptBuffers, tool).vg.slack;
    const rct::SinkId sid{0};
    rct::SinkInfo info = tree.sink(sid);
    info.required_arrival = headroom * arrival;
    tree.set_sink_info(sid, info);
    chains.push_back(
        batch::BatchNet{"chain" + std::to_string(i), std::move(tree)});
  }
  return chains;
}

Outcome run_chain512(const RunConfig& cfg) {
  Outcome out;
  const lib::BufferLibrary lib = lib::default_library();
  std::vector<batch::BatchNet> chains;
  const double setup_s =
      timed_setup(cfg, [&] { chains = make_chains(cfg, lib); });
  const std::size_t n = chains.size();
  const signoff::WorkloadOptions so_p = signoff_options(cfg.threads);
  const auto fast = core::VgKernel::Fast;

  BatchTally tally;
  Pass first;
  signoff::WorkloadSignoff first_so;
  std::string first_so_json;

  const Deadline deadline(cfg);
  while (deadline.more(tally.latency_ms.size())) {
    std::vector<Pass> a;
    Pass b;
    signoff::WorkloadSignoff so;
    double s_s = 0.0;
    try {
      for (int r = 0; r < kAPasses; ++r)
        a.push_back(
            optimize_chains(chains, lib, cfg.threads, fast, &tally.latency_ms));
      const auto t0 = Clock::now();
      so = signoff::run_workload(chains, a.back().buffopt, lib, so_p);
      s_s = seconds_since(t0);
      b = optimize_chains(chains, lib, 1, fast, nullptr);
    } catch (const std::exception& e) {
      out.attempted += (kAPasses + 2) * n;
      out.fail((kAPasses + 2) * n,
               std::string("chain512 pass threw: ") + e.what());
      break;
    }
    out.attempted += (kAPasses + 2) * n;
    tally.ops += (kAPasses + 2) * n;
    for (const Pass& p : a) {
      tally.busy_s += p.wall;
      tally.tput_p.push_back(static_cast<double>(n) / p.wall);
    }
    tally.busy_s += s_s + b.wall;
    tally.tput_so.push_back(static_cast<double>(n) / (a.back().wall + s_s));
    tally.tput_1.push_back(static_cast<double>(n) / b.wall);

    // Determinism checks, outside every timer.
    if (first.buffopt.empty()) {
      first = a.front();
      first_so = so;
      first_so_json = signoff_json(so);
    } else if (signoff_json(so) != first_so_json) {
      out.fail(n, "signoff pass differs from the first signoff pass");
    }
    for (const Pass& p : a)
      if (const std::size_t bad =
              count_mismatches(first, p, Compare::BitIdentical))
        out.fail(bad, "P-thread pass differs from the first pass");
    if (const std::size_t bad =
            count_mismatches(first, b, Compare::BitIdentical))
      out.fail(bad, "1-thread results differ from P-thread results");
  }
  const double rss = peak_rss_mb();

  // Oracles, untimed.
  if (!first.buffopt.empty()) {
    const Pass ref = optimize_chains(chains, lib, cfg.threads,
                                     core::VgKernel::Reference, nullptr);
    if (const std::size_t bad = count_mismatches(first, ref, Compare::Solution))
      out.fail(bad, "fast kernel differs from VgKernel::Reference");
    check_signoff(out, chains, first.buffopt, lib, first_so);
  }

  tally.report(out, setup_s, rss);
  return out;
}

}  // namespace perfbench
