// serve_eco: the ECO loop nbuf_serve exists for. An in-process
// serve::Server (P workers) on loopback with one serve::Client connection
// serving seeded branchy trees (8-32 sinks, segmented at 150 µm), each
// loaded and optimized once during setup. The timed stream alternates
//   - a closed-loop interactive phase, one request in flight: local
//     PERTURBs (subtree cache pays), global PERTURBs (cache bypassed) and
//     SIGNOFFs                     -> req_p50_ms, req_p99_ms, nets_per_s_1t
//                                     (PERTURBs), signoff_nets_per_s
//   - a what-if burst: PERTURBs on distinct nets sent with
//     Client::pipeline, so coalescing and the worker fan-out run
//                                  -> nets_per_s
// req_per_s counts every completed request over the timed wall time.
//
// Oracle: a seeded sample of answers is replayed afterwards on a fresh
// in-process serve::Session as "full 1" cold twins (every edit the net saw
// since the previous sample, then a from-scratch DP), and the solutions
// must match byte for byte.
#include <memory>

#include "bench.hpp"
#include "eco.hpp"
#include "inputs.hpp"
#include "lib/technology.hpp"
#include "pipeline.hpp"
#include "serve/server.hpp"
#include "steiner/builders.hpp"
#include "util/units.hpp"

namespace perfbench {

using namespace nbuf;
using namespace nbuf::units;

std::vector<batch::BatchNet> make_eco_trees(const RunConfig& cfg) {
  util::Rng rng(sub_seed(cfg.seed, 2));
  const lib::Technology tech = lib::default_technology();
  std::vector<batch::BatchNet> trees;
  for (std::size_t i = 0; i < cfg.scale.serve_nets; ++i) {
    // Depth round-robin (8/16/32 sinks) keeps the mix the same for every
    // seed, and the drawn parameters stay within ~5-10% of nominal: golden
    // SIGNOFF cost grows about with the cube of a stage's length, so wider
    // draws would make the latency tail a property of the seed.
    const int depth = 3 + static_cast<int>(i % 3);
    const double edge = rng.uniform(480.0, 520.0);
    rct::SinkInfo proto;
    proto.name = "s";
    proto.cap = rng.uniform(11.0, 13.0) * fF;
    proto.required_arrival = rng.uniform(2850.0, 3150.0) * ps;
    proto.noise_margin = rng.uniform(0.76, 0.84);
    const rct::Driver drv{"drv", rng.uniform(140.0, 160.0),
                          rng.uniform(27.0, 33.0) * ps};
    trees.push_back(batch::BatchNet{
        "eco" + std::to_string(i),
        steiner::make_balanced_tree(depth, edge, drv, proto, tech)});
  }
  return trees;
}

namespace {

// What the oracle needs to replay a request: its net and edit (compact —
// the log lives through the timed loop and must not grow RSS much).
struct Logged {
  eco::Request req;
  std::uint32_t check = 0;  // 1 + index into the sampled answers, or 0
};

struct Sample {
  std::size_t position = 0;  // index into the log
  std::string answer;        // solution block / SIGNOFF payload
};

// Reservoir sample of request positions: a seeded, uniform pick of
// `capacity` answers however many requests the run completed.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {}
  // Returns the slot `position` takes, or -1 when it is not sampled.
  long offer(std::size_t position) {
    ++seen_;
    if (slots_.size() < capacity_) {
      slots_.push_back(position);
      return static_cast<long>(slots_.size() - 1);
    }
    const auto j = static_cast<std::size_t>(
        std::uniform_int_distribution<std::size_t>(0, seen_ - 1)(
            rng_.engine()));
    if (j >= capacity_) return -1;
    slots_[j] = position;
    return static_cast<long>(j);
  }

 private:
  std::size_t capacity_;
  util::Rng rng_;
  std::size_t seen_ = 0;
  std::vector<std::size_t> slots_;
};

struct Service {
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Client> client;
};

Service start_service(const RunConfig& cfg, const eco::NetSet& nets) {
  Service s;
  serve::ServerOptions so;
  so.threads = cfg.threads;
  s.server = std::make_unique<serve::Server>(so);
  s.server->start();
  s.client = std::make_unique<serve::Client>(
      serve::Client::connect("127.0.0.1", s.server->port()));
  eco::load_all(*s.client, nets);
  return s;
}

void stop_service(Service& s) {
  s.client.reset();
  if (s.server) s.server->stop();
  s.server.reset();
}

// Replays the log on a fresh session and compares every sampled answer
// with its cold twin. A net is reloaded lazily, only in epochs where one of
// its answers is checked; until then its edits just accumulate.
void check_cold_twins(Outcome& out, const eco::NetSet& nets,
                      const std::vector<Logged>& log,
                      const std::vector<Sample>& samples) {
  serve::Session session;
  std::vector<std::string> pending(nets.names.size());
  std::vector<bool> stale(nets.names.size(), true);  // not loaded this epoch
  for (const Logged& l : log) {
    const eco::Request& r = l.req;
    if (r.kind == eco::Kind::Reload) {
      stale.assign(stale.size(), true);
      for (std::string& p : pending) p.clear();
      continue;
    }
    if (r.kind != eco::Kind::Signoff)
      pending[r.net] += r.edit.line() + "\n";
    if (l.check == 0) continue;
    if (stale[r.net]) {
      eco::load_one(session, nets, r.net);
      stale[r.net] = false;
    }
    const std::string head = "net " + nets.names[r.net] + "\n";
    std::string got;
    if (!pending[r.net].empty()) {
      const serve::Frame f = session.handle(eco::frame(
          serve::Opcode::Perturb, head + "full 1\n" + pending[r.net]));
      pending[r.net].clear();
      got = eco::solution_of(f.payload);
    }
    if (r.kind == eco::Kind::Signoff)
      got = session.handle(eco::frame(serve::Opcode::Signoff, head)).payload;
    if (got != samples[l.check - 1].answer)
      out.fail(1, "answer " + std::to_string(samples[l.check - 1].position) +
                      " on " + nets.names[r.net] +
                      " differs from its full-1 cold twin");
  }
}

}  // namespace

Outcome run_serve_eco(const RunConfig& cfg) {
  Outcome out;
  const lib::BufferLibrary lib = lib::default_library();
  eco::NetSet nets;
  Service svc;
  const double setup_s = timed_setup(
      cfg,
      [&] {
        nets = eco::make_net_set(make_eco_trees(cfg), kEcoSegmentUm, lib);
        svc = start_service(cfg, nets);
      },
      [&] { stop_service(svc); });

  eco::Stream stream(nets, sub_seed(cfg.seed, 3));
  Reservoir reservoir(cfg.scale.eco_checks, sub_seed(cfg.seed, 4));
  std::vector<Logged> log;
  std::vector<Sample> samples(cfg.scale.eco_checks);
  std::vector<double> latency_ms;
  double perturb_s = 0.0, signoff_s = 0.0, burst_s = 0.0, reload_s = 0.0;
  std::size_t perturbs = 0, signoffs = 0, burst_reqs = 0;

  // Logs the request and keeps its answer when the reservoir samples it.
  auto record = [&](const eco::Request& r, const serve::Frame& resp) {
    ++out.attempted;
    if (resp.op == serve::Opcode::Error) {
      out.fail(1, nets.names[r.net] + ": " + resp.payload);
      log.push_back(Logged{r, 0});
      return;
    }
    const std::size_t position = log.size();
    log.push_back(Logged{r, 0});
    const long slot = reservoir.offer(position);
    if (slot < 0) return;
    const auto s = static_cast<std::size_t>(slot);
    Logged& previous = log[samples[s].position];  // no longer checked
    if (previous.check == s + 1) previous.check = 0;
    log.back().check = static_cast<std::uint32_t>(s + 1);
    samples[s] = Sample{
        position, r.kind == eco::Kind::Signoff ? resp.payload
                                               : eco::solution_of(resp.payload)};
  };

  const auto t_start = Clock::now();
  const Deadline deadline(cfg);
  try {
    while (deadline.more(latency_ms.size())) {
      for (std::size_t k = 0; k < cfg.scale.interactive_phase; ++k) {
        const eco::Request r = stream.next_interactive();
        if (r.kind == eco::Kind::Reload) {  // untimed, not a request
          const auto t0 = Clock::now();
          eco::load_all(*svc.client, nets);
          reload_s += seconds_since(t0);
          log.push_back(Logged{r, 0});
          continue;
        }
        const std::string body = eco::payload(nets, r);
        const auto t0 = Clock::now();
        const serve::Frame resp = svc.client->call(r.opcode(), body);
        const double dt = seconds_since(t0);
        latency_ms.push_back(dt * 1e3);
        if (r.kind == eco::Kind::Signoff) {
          signoff_s += dt;
          ++signoffs;
        } else {
          perturb_s += dt;
          ++perturbs;
        }
        record(r, resp);
      }
      const std::vector<eco::Request> burst =
          stream.next_burst(cfg.scale.burst);
      std::vector<std::pair<serve::Opcode, std::string>> frames;
      for (const eco::Request& r : burst)
        frames.emplace_back(r.opcode(), eco::payload(nets, r));
      const auto t0 = Clock::now();
      const std::vector<serve::Frame> resps = svc.client->pipeline(frames);
      burst_s += seconds_since(t0);
      burst_reqs += burst.size();
      for (std::size_t i = 0; i < burst.size(); ++i) record(burst[i], resps[i]);
    }
  } catch (const std::exception& e) {
    ++out.attempted;
    out.fail(1, std::string("serve_eco connection failed: ") + e.what());
  }
  const double wall = seconds_since(t_start) - reload_s;
  const double rss = peak_rss_mb();
  stop_service(svc);

  // Oracle, untimed.
  std::vector<Sample> kept;
  std::size_t next = 0;
  for (Logged& l : log)  // renumber the surviving samples in log order
    if (l.check != 0) {
      kept.push_back(std::move(samples[l.check - 1]));
      l.check = static_cast<std::uint32_t>(++next);
    }
  check_cold_twins(out, nets, log, kept);

  out.add("setup_s", setup_s, "s");
  out.add("nets_per_s",
          burst_s > 0.0 ? static_cast<double>(burst_reqs) / burst_s : 0.0,
          "nets/s");
  out.add("nets_per_s_1t",
          perturb_s > 0.0 ? static_cast<double>(perturbs) / perturb_s : 0.0,
          "nets/s");
  out.add("signoff_nets_per_s",
          signoff_s > 0.0 ? static_cast<double>(signoffs) / signoff_s : 0.0,
          "nets/s");
  add_latency_metrics(out, latency_ms);
  out.add("req_per_s",
          wall > 0.0 ? static_cast<double>(out.attempted) / wall : 0.0,
          "req/s");
  out.add("peak_rss_mb", rss, "MB");
  return out;
}

}  // namespace perfbench
