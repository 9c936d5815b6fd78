// The traced run (--trace 1): per-layer numbers for one workload.
//
// The benchmark records its own spans around each call into a layer, and
// calls the layers one after another in core::run's order — parse,
// binarize + segment, unbuffered analyze, optimize, buffered analyze —
// then signoff::verify_result. Each timer is therefore a self time by
// construction. Verify's children (golden simulation, metric noise, Elmore
// timing) are timed by calling them again on the same solution, and
// signoff.self_s is verify minus them.
//
// The traced run must reproduce the untraced run's outputs: it also runs
// the workload's pipeline untraced at 1 thread and at P threads (parse +
// batch::BatchEngine, then signoff::run_workload), and every traced result
// and signoff report must be bit-identical to those. batch.residual_s is
// the untraced 1-thread wall minus the sum of the pipeline's layer times;
// bench.trace_overhead is the traced pipeline wall over the untraced one,
// minus 1.
//
// The serve layers are measured on the serve_eco stream in every traced
// run: a socket stream (serve::Server + Client), the same frames replayed
// in-process through serve::Session::handle, and the same edits on a
// core::IncrementalContext.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "eco.hpp"
#include "elmore/elmore.hpp"
#include "inputs.hpp"
#include "io/netfile.hpp"
#include "noise/devgan.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "seg/segment.hpp"
#include "serve/server.hpp"
#include "sim/golden.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace nbuf;

namespace {

constexpr std::size_t kBatchMaxBuffers = 24;  // BatchOptions default

struct Mode {
  batch::BatchMode mode;
  core::VgOptions vg;  // what core::run_buffopt / run_delayopt resolve to
};

std::vector<Mode> modes_of(bool with_delayopt) {
  std::vector<Mode> modes;
  core::VgOptions vg;
  vg.max_buffers = kBatchMaxBuffers;
  vg.noise_constraints = true;
  vg.objective = core::VgObjective::MinBuffersMeetingConstraints;
  modes.push_back(Mode{batch::BatchMode::BuffOpt, vg});
  if (with_delayopt) {
    vg.noise_constraints = false;
    vg.objective = core::VgObjective::MaxSlack;
    modes.push_back(Mode{batch::BatchMode::DelayOpt, vg});
  }
  return modes;
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

// One untraced pass: parse every file, then each mode on the BatchEngine.
struct Untraced {
  std::vector<batch::BatchNet> nets;
  std::vector<std::vector<core::ToolResult>> results;  // [mode][net]
  double wall = 0.0;
};

Untraced untraced_pass(const std::vector<std::string>& files,
                       const std::vector<Mode>& modes, double segment_um,
                       std::size_t threads, const lib::BufferLibrary& lib) {
  Untraced u;
  const auto t0 = Clock::now();
  for (const std::string& f : files) {
    io::NetFile net = io::read_net_file(f, lib);
    u.nets.push_back(batch::BatchNet{std::move(net.name), std::move(net.tree)});
  }
  for (const Mode& m : modes) {
    batch::BatchOptions bo;
    bo.threads = threads;
    bo.mode = m.mode;
    bo.max_buffers = kBatchMaxBuffers;
    bo.tool.segmenting = {segment_um};
    u.results.push_back(batch::BatchEngine(bo).run(u.nets, lib).results);
  }
  u.wall = seconds_since(t0);
  return u;
}

}  // namespace

std::vector<std::string> write_net_files(
    const std::vector<batch::BatchNet>& nets, const std::string& dir,
    const lib::BufferLibrary& lib) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::string> files;
  files.reserve(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    // Zero-padded so batch::load_directory's filename order is net order.
    char file[32];
    std::snprintf(file, sizeof(file), "%06zu.net", i);
    files.push_back((std::filesystem::path(dir) / file).string());
    io::write_net_file(files.back(), nets[i].name, nets[i].tree, {}, lib);
  }
  return files;
}

namespace {

// Self times of one traced pass over the parse + optimize pipeline.
struct LayerTimes {
  double io = 0, seg = 0, noise = 0, elmore = 0, opt = 0;
  double wall = 0;  // the whole pass, timers included
  std::size_t bytes = 0, sites = 0;
  util::VgStats stats;
  [[nodiscard]] double layers() const { return io + seg + noise + elmore + opt; }
};

// Parses every file and runs each mode in core::run's order, timing every
// layer call; every result must equal the untraced run's. `buffopt`, when
// given, receives the BuffOpt results.
LayerTimes traced_pipeline(Outcome& out, const std::vector<std::string>& files,
                           const std::vector<Mode>& modes, double segment_um,
                           const lib::BufferLibrary& lib, const Untraced& ref,
                           std::vector<core::ToolResult>* buffopt) {
  LayerTimes lt;
  const auto t_pass = Clock::now();
  for (std::size_t i = 0; i < files.size(); ++i) {
    auto t = Clock::now();
    io::NetFile net = io::read_net_file(files[i], lib);
    lt.io += seconds_since(t);
    lt.bytes += static_cast<std::size_t>(std::filesystem::file_size(files[i]));
    for (std::size_t m = 0; m < modes.size(); ++m) {
      core::ToolResult r;
      r.tree = net.tree;
      t = Clock::now();
      r.tree.binarize();
      lt.sites += seg::segment(r.tree, {segment_um});
      lt.seg += seconds_since(t);
      t = Clock::now();
      r.noise_before = noise::analyze_unbuffered(r.tree);
      lt.noise += seconds_since(t);
      t = Clock::now();
      r.timing_before = elmore::analyze_unbuffered(r.tree);
      lt.elmore += seconds_since(t);
      t = Clock::now();
      r.vg = core::optimize(r.tree, lib, modes[m].vg);
      lt.opt += seconds_since(t);
      t = Clock::now();
      r.noise_after = noise::analyze(r.tree, r.vg.buffers, lib);
      lt.noise += seconds_since(t);
      t = Clock::now();
      r.timing_after = elmore::analyze(r.tree, r.vg.buffers, lib);
      lt.elmore += seconds_since(t);
      lt.stats += r.vg.stats;
      if (!same_result(r, ref.results[m][i]))
        out.fail(1, "traced result of " + ref.nets[i].name +
                        " differs from the untraced run");
      if (m == 0 && buffopt != nullptr) buffopt->push_back(std::move(r));
    }
  }
  lt.wall = seconds_since(t_pass);
  return lt;
}

void decompose(Outcome& out, const RunConfig& cfg,
               const std::vector<std::string>& files, double segment_um,
               bool with_delayopt) {
  const lib::BufferLibrary lib = lib::default_library();
  const std::vector<Mode> modes = modes_of(with_delayopt);
  const signoff::WorkloadOptions so = signoff_options(1);
  const std::size_t n = files.size();

  // Untraced reference passes (median wall of a few).
  std::vector<double> walls_1, walls_p;
  Untraced ref;
  for (std::size_t r = 0; r < std::max<std::size_t>(1, cfg.scale.untraced_repeats);
       ++r) {
    Untraced at_1 = untraced_pass(files, modes, segment_um, 1, lib);
    const Untraced at_p =
        untraced_pass(files, modes, segment_um, cfg.threads, lib);
    walls_1.push_back(at_1.wall);
    walls_p.push_back(at_p.wall);
    for (std::size_t m = 0; m < modes.size(); ++m)
      if (const auto bad = mismatches(at_1.results[m], at_p.results[m]);
          !bad.empty())
        out.fail(bad.size(), "untraced 1-thread and P-thread results differ");
    if (r == 0) ref = std::move(at_1);
  }
  out.attempted += n * modes.size() * 2 * walls_1.size();
  const signoff::WorkloadSignoff ref_so =
      signoff::run_workload(ref.nets, ref.results[0], lib, so);

  // The traced pipeline, 1 thread, layer by layer; repeated like the
  // untraced passes, and the repetition with the median wall is reported.
  std::vector<LayerTimes> reps;
  std::vector<core::ToolResult> buffopt;
  for (std::size_t r = 0; r < walls_1.size(); ++r)
    reps.push_back(traced_pipeline(out, files, modes, segment_um, lib, ref,
                                   r == 0 ? &buffopt : nullptr));
  std::sort(reps.begin(), reps.end(),
            [](const LayerTimes& a, const LayerTimes& b) {
              return a.wall < b.wall;
            });
  const LayerTimes& lt = reps[reps.size() / 2];

  // Signoff of the BuffOpt results, then verify's children on their own.
  double verify_s = 0, golden_s = 0, children_s = 0;
  std::size_t leaves = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto t = Clock::now();
    const signoff::SignoffReport rep = signoff::verify_result(
        ref.nets[i].name, buffopt[i], lib, {}, so.signoff);
    verify_s += seconds_since(t);
    if (buffopt[i].vg.feasible) {  // verify_result ran its children
      const core::ToolResult& b = buffopt[i];
      t = Clock::now();
      leaves += sim::golden_analyze(b.tree, b.vg.buffers, lib,
                                    so.signoff.golden)
                    .leaves.size();
      golden_s += seconds_since(t);
      t = Clock::now();
      (void)noise::analyze(b.tree, b.vg.buffers, lib);
      (void)elmore::analyze(b.tree, b.vg.buffers, lib);
      children_s += seconds_since(t);
    }
    if (signoff::to_json(rep) != signoff::to_json(ref_so.reports[i]))
      out.fail(1, "traced signoff of " + ref.nets[i].name +
                      " differs from the untraced run");
  }
  out.attempted += n * (modes.size() * reps.size() + 1);

  const double e2e_1 = median(walls_1);
  const util::VgStats& stats = lt.stats;
  const auto count = [](std::size_t v) { return static_cast<double>(v); };
  out.add("io.read_net_s", lt.io, "s");
  out.add("io.bytes", count(lt.bytes), "bytes");
  out.add("seg.segment_s", lt.seg, "s");
  out.add("seg.sites", count(lt.sites), "count");
  out.add("core.optimize_s", lt.opt, "s");
  out.add("core.candidates_generated", count(stats.candidates_generated),
          "count");
  out.add("core.pruned_inferior", count(stats.pruned_inferior), "count");
  out.add("core.pruned_infeasible", count(stats.pruned_infeasible), "count");
  out.add("core.merged", count(stats.merged), "count");
  out.add("core.peak_list_size", count(stats.peak_list_size), "count");
  out.add("core.survivor_ratio",
          stats.candidates_generated == 0
              ? 0.0
              : 1.0 - count(stats.pruned_inferior + stats.pruned_infeasible) /
                          count(stats.candidates_generated),
          "ratio");
  out.add("noise.analyze_s", lt.noise, "s");
  out.add("elmore.analyze_s", lt.elmore, "s");
  out.add("sim.golden_s", golden_s, "s");
  out.add("sim.golden_leaves", count(leaves), "count");
  out.add("signoff.verify_s", verify_s, "s");
  out.add("signoff.self_s", verify_s - golden_s - children_s, "s");
  out.add("batch.threads", count(cfg.threads), "count");
  out.add("batch.e2e_1t_s", e2e_1, "s");
  out.add("batch.scaling", e2e_1 / median(walls_p), "x");
  out.add("batch.residual_s", e2e_1 - lt.layers(), "s");
  out.add("bench.trace_overhead", lt.wall / e2e_1 - 1.0, "ratio");
}

void serve_layers(Outcome& out, const RunConfig& cfg, const eco::NetSet& nets) {
  const lib::BufferLibrary lib = lib::default_library();
  struct Sent {
    eco::Request req;
    serve::Frame request;
    serve::Frame response;
    double latency_ms = 0.0;  // interactive requests only
  };
  std::vector<Sent> sent;
  std::vector<std::vector<std::size_t>> bursts;  // indices into `sent`
  double burst_batches = 0.0, burst_frames = 0.0;
  double reused = 0.0, recomputed = 0.0;

  // 1. The socket stream, as the timed serve_eco run sends it.
  {
    serve::ServerOptions so;
    so.threads = cfg.threads;
    serve::Server server(so);
    server.start();
    serve::Client client = serve::Client::connect("127.0.0.1", server.port());
    eco::load_all(client, nets);
    const auto subtree_counters = [&]() {
      const std::string stats = client.call(serve::Opcode::Stats, "").payload;
      std::map<std::string, double> kv;
      std::istringstream in(stats);
      std::string key;
      double v = 0;
      while (in >> key)
        if (in >> v) kv[key] = v;
        else in.clear();
      return std::pair{kv["subtrees_reused"], kv["subtrees_recomputed"]};
    };
    const auto [reused0, recomputed0] = subtree_counters();
    const auto batch_hist = [&]() {
      for (const auto& h : server.metrics().snapshot().histograms)
        if (h.name == "serve.batch_size")
          return std::pair{static_cast<double>(h.count),
                           static_cast<double>(h.sum)};
      return std::pair{0.0, 0.0};
    };
    eco::Stream stream(nets, sub_seed(cfg.seed, 3));
    std::size_t interactive = 0;
    while (interactive < cfg.scale.traced_requests) {
      for (std::size_t k = 0; k < cfg.scale.interactive_phase; ++k, ++interactive) {
        Sent s;
        s.req = stream.next_interactive();
        if (s.req.kind == eco::Kind::Reload) {
          // The reload's cold OPTIMIZEs are not part of the stream.
          const auto [r1, c1] = subtree_counters();
          eco::load_all(client, nets);
          const auto [r2, c2] = subtree_counters();
          reused -= r2 - r1;
          recomputed -= c2 - c1;
          sent.push_back(std::move(s));
          continue;
        }
        s.request = eco::frame(s.req.opcode(), eco::payload(nets, s.req));
        const auto t0 = Clock::now();
        s.response = client.call(s.request.op, s.request.payload);
        s.latency_ms = ms_since(t0);
        sent.push_back(std::move(s));
      }
      std::vector<std::pair<serve::Opcode, std::string>> frames;
      bursts.emplace_back();
      for (const eco::Request& r : stream.next_burst(cfg.scale.burst)) {
        Sent s;
        s.req = r;
        s.request = eco::frame(r.opcode(), eco::payload(nets, r));
        frames.emplace_back(s.request.op, s.request.payload);
        bursts.back().push_back(sent.size());
        sent.push_back(std::move(s));
      }
      const auto [c0, s0] = batch_hist();
      const std::vector<serve::Frame> resps = client.pipeline(frames);
      const auto [c1, s1] = batch_hist();
      burst_batches += c1 - c0;
      burst_frames += s1 - s0;
      for (std::size_t i = 0; i < resps.size(); ++i)
        sent[bursts.back()[i]].response = resps[i];
    }
    const auto [reused1, recomputed1] = subtree_counters();
    reused += reused1 - reused0;
    recomputed += recomputed1 - recomputed0;
    server.stop();
  }
  for (const Sent& s : sent) {
    if (s.req.kind == eco::Kind::Reload) continue;
    ++out.attempted;
    if (s.response.op == serve::Opcode::Error)
      out.fail(1, "traced stream: " + s.response.payload);
  }

  // 2. The same frames through serve::Session in-process: handle times,
  //    and the answers must match the socket's byte for byte.
  std::vector<double> handle_local, handle_global, handle_signoff, transport;
  {
    serve::SessionOptions session_opt;
    session_opt.threads = cfg.threads;
    serve::Session session(session_opt);
    eco::load_all(session, nets);
    std::size_t b = 0;
    for (std::size_t i = 0; i < sent.size();) {
      if (sent[i].req.kind == eco::Kind::Reload) {
        eco::load_all(session, nets);
        ++i;
        continue;
      }
      if (sent[i].req.kind == eco::Kind::Burst) {
        std::vector<serve::Frame> frames;
        for (const std::size_t j : bursts[b]) frames.push_back(sent[j].request);
        const std::vector<serve::Frame> resps = session.handle_batch(frames);
        for (std::size_t k = 0; k < resps.size(); ++k)
          if (resps[k].payload != sent[bursts[b][k]].response.payload)
            out.broken("in-process burst answer differs from the socket's");
        i += bursts[b++].size();
        continue;
      }
      const auto t0 = Clock::now();
      const serve::Frame resp = session.handle(sent[i].request);
      const double ms = ms_since(t0);
      if (resp.payload != sent[i].response.payload)
        out.broken("in-process answer differs from the socket's");
      (sent[i].req.kind == eco::Kind::Signoff ? handle_signoff
       : sent[i].req.kind == eco::Kind::Global ? handle_global
                                                : handle_local)
          .push_back(ms);
      transport.push_back(sent[i].latency_ms - ms);
      ++i;
    }
  }

  // 3. Encode + header decode of every frame of the stream.
  double protocol_s = 0.0;
  {
    std::size_t sink = 0;
    const auto t0 = Clock::now();
    for (const Sent& s : sent)
      for (const serve::Frame* f : {&s.request, &s.response}) {
        if (s.req.kind == eco::Kind::Reload) continue;
        const std::string wire = serve::encode_frame(*f);
        sink += serve::decode_header(
                    reinterpret_cast<const unsigned char*>(wire.data()))
                    .payload_len;
      }
    protocol_s = seconds_since(t0);
    if (sink == 0) out.broken("protocol round trip carried no payload");
  }

  // 4. The same edits on core::IncrementalContext, one per net. plan_cells
  //    is the largest arena total an epoch reached.
  std::vector<double> incremental_ms;
  double plan_cells = 0.0;
  {
    std::vector<std::unique_ptr<core::IncrementalContext>> ctx;
    const auto epoch_end = [&]() {
      double cells = 0.0;
      for (const auto& c : ctx)
        cells += static_cast<double>(c->stats().plan_cells);
      plan_cells = std::max(plan_cells, cells);
      ctx.clear();
      for (const rct::RoutingTree& t : nets.loaded) {
        ctx.push_back(std::make_unique<core::IncrementalContext>(
            t, lib, eco::session_options()));
        (void)ctx.back()->optimize();
      }
    };
    epoch_end();
    for (const Sent& s : sent) {
      if (s.req.kind == eco::Kind::Reload) epoch_end();
      if (s.req.kind == eco::Kind::Signoff || s.req.kind == eco::Kind::Reload)
        continue;
      core::IncrementalContext& c = *ctx[s.req.net];
      eco::apply(c, s.req.edit);
      const auto t0 = Clock::now();
      (void)c.optimize();
      incremental_ms.push_back(ms_since(t0));
    }
    epoch_end();
  }

  out.add("serve.handle_perturb_ms", median(handle_local), "ms");
  out.add("serve.handle_global_ms", median(handle_global), "ms");
  out.add("serve.handle_signoff_ms", median(handle_signoff), "ms");
  out.add("serve.transport_ms", median(transport), "ms");
  out.add("serve.protocol_s", protocol_s, "s");
  out.add("serve.burst_batch_mean",
          burst_batches > 0.0 ? burst_frames / burst_batches : 0.0, "count");
  out.add("core.reuse_ratio",
          reused + recomputed > 0.0 ? reused / (reused + recomputed) : 0.0,
          "ratio");
  out.add("core.incremental_optimize_ms", median(incremental_ms), "ms");
  out.add("core.plan_cells", plan_cells, "count");
}

std::string trace_dir(const RunConfig& cfg) {
  return (std::filesystem::path(cfg.work_dir) / (cfg.workload + "_trace"))
      .string();
}

// The serve layers are on serve_eco's path only; every traced run measures
// them on the serve_eco stream of its seed, so each reports every layer.
void eco_serve_layers(Outcome& out, const RunConfig& cfg,
                      const lib::BufferLibrary& lib) {
  serve_layers(out, cfg,
               eco::make_net_set(make_eco_trees(cfg), kEcoSegmentUm, lib));
}

constexpr double kBatchSegmentUm = 500.0;  // core::ToolOptions default

}  // namespace

Outcome trace_section5(const RunConfig& cfg) {
  Outcome out;
  const lib::BufferLibrary lib = lib::default_library();
  const std::vector<std::string> files = write_section5_inputs(cfg, lib);
  decompose(out, cfg, files, kBatchSegmentUm, /*with_delayopt=*/false);
  std::filesystem::remove_all(std::filesystem::path(files.front()).parent_path());
  eco_serve_layers(out, cfg, lib);
  return out;
}

Outcome trace_chain512(const RunConfig& cfg) {
  Outcome out;
  const lib::BufferLibrary lib = lib::default_library();
  const std::vector<std::string> files =
      write_net_files(make_chains(cfg, lib), trace_dir(cfg), lib);
  decompose(out, cfg, files, kChainSegmentUm, /*with_delayopt=*/true);
  std::filesystem::remove_all(trace_dir(cfg));
  eco_serve_layers(out, cfg, lib);
  return out;
}

Outcome trace_serve_eco(const RunConfig& cfg) {
  Outcome out;
  const lib::BufferLibrary lib = lib::default_library();
  const std::vector<std::string> files =
      write_net_files(make_eco_trees(cfg), trace_dir(cfg), lib);
  decompose(out, cfg, files, kEcoSegmentUm, /*with_delayopt=*/false);
  std::filesystem::remove_all(trace_dir(cfg));
  eco_serve_layers(out, cfg, lib);
  return out;
}

}  // namespace perfbench
