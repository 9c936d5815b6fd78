#include "eco.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "io/netfile.hpp"
#include "seg/segment.hpp"
#include "util/units.hpp"

namespace perfbench::eco {

using namespace nbuf;
using namespace nbuf::units;

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// exp(uniform(-w, w)): multiplicative factors with no drift in log space.
double factor(util::Rng& rng, double w) { return std::exp(rng.uniform(-w, w)); }

}  // namespace

std::string Edit::line() const {
  switch (kind) {
    case Kind::ScaleWire:
      return "scale_wire " + std::to_string(index) + " " + num(a) + " " +
             num(b) + " " + num(c);
    case Kind::SetSink:
      return "set_sink " + std::to_string(index) + " " + num(a) + " " +
             num(b) + " " + num(c);
    case Kind::SplitWire:
      return "split_wire " + std::to_string(index) + " " + num(a);
    case Kind::TightenMargins:
      return "tighten_margins " + num(a);
    case Kind::ScaleCoupling:
      return "scale_coupling " + num(a);
  }
  return {};
}

void apply(core::IncrementalContext& ctx, const Edit& e) {
  switch (e.kind) {
    case Edit::Kind::ScaleWire:
      ctx.scale_wire(rct::NodeId{e.index}, e.a, e.b, e.c);
      return;
    case Edit::Kind::SetSink: {
      const rct::SinkId sid{e.index};
      rct::SinkInfo info = ctx.tree().sink(sid);
      info.cap = e.a * fF;
      info.required_arrival = e.b * ps;
      info.noise_margin = e.c;
      ctx.set_sink(sid, info);
      return;
    }
    case Edit::Kind::SplitWire:
      (void)ctx.split_wire(rct::NodeId{e.index}, e.a);
      return;
    case Edit::Kind::TightenMargins:
      ctx.tighten_margins(e.a);
      return;
    case Edit::Kind::ScaleCoupling:
      ctx.scale_coupling(e.a);
      return;
  }
}

NetSet make_net_set(const std::vector<batch::BatchNet>& nets,
                    double segment_um, const lib::BufferLibrary& lib) {
  NetSet s;
  for (const batch::BatchNet& n : nets) {
    std::ostringstream text;
    io::write_net(text, n.name, n.tree, rct::BufferAssignment{}, lib);
    s.names.push_back(n.name);
    s.payloads.push_back("segment " + num(segment_um) + "\n" + text.str());
    // Exactly what LOAD_NET builds: parse, binarize, segment.
    std::istringstream in(text.str());
    rct::RoutingTree t = io::read_net(in, lib).tree;
    t.binarize();
    (void)seg::segment(t, {segment_um});
    s.loaded.push_back(std::move(t));
  }
  return s;
}

std::string payload(const NetSet& nets, const Request& r) {
  std::string p = "net " + nets.names[r.net] + "\n";
  if (r.kind == Kind::Signoff) return p;
  return p + r.edit.line() + "\n";
}

Stream::Stream(const NetSet& nets, std::uint64_t seed)
    : nets_(nets),
      mirror_(nets.loaded),
      splits_(nets.loaded.size(), 0),
      rng_(seed) {}

Edit Stream::local_edit(std::uint32_t net) {
  rct::RoutingTree& t = mirror_[net];
  Edit e;
  const int pick = rng_.uniform_int(0, 2);
  const auto node = static_cast<std::uint32_t>(
      rng_.uniform_int(1, static_cast<int>(t.node_count()) - 1));
  const double len = t.node(rct::NodeId{node}).parent_wire.length;
  if (pick == 1) {
    e.kind = Edit::Kind::SetSink;
    e.index = static_cast<std::uint32_t>(
        rng_.uniform_int(0, static_cast<int>(t.sink_count()) - 1));
    const rct::SinkId sid{e.index};
    rct::SinkInfo info = t.sink(sid);
    e.a = rng_.uniform(6.0, 30.0);                          // fF
    e.b = info.required_arrival / ps * factor(rng_, 0.1);   // ps
    e.c = rng_.uniform(0.6, 0.9);                           // V
    info.cap = e.a * fF;
    info.required_arrival = e.b * ps;
    info.noise_margin = e.c;
    t.set_sink_info(sid, info);
  } else if (pick == 2 && splits_[net] < kMaxSplits && len > 4.0) {
    e.kind = Edit::Kind::SplitWire;
    e.index = node;
    e.a = len * rng_.uniform(0.25, 0.75);
    (void)t.split_wire(rct::NodeId{node}, e.a);
    ++splits_[net];
  } else {
    e.kind = Edit::Kind::ScaleWire;
    e.index = node;
    e.a = factor(rng_, 0.2);
    e.b = factor(rng_, 0.2);
    e.c = factor(rng_, 0.2);
  }
  return e;
}

Request Stream::next_interactive() {
  Request r;
  if (++draws_ % (kEpoch + 1) == 0) {
    r.kind = Kind::Reload;
    mirror_ = nets_.loaded;
    splits_.assign(splits_.size(), 0);
    have_inverse_ = false;
    return r;
  }
  const double u = rng_.uniform(0.0, 1.0);
  const auto nets = static_cast<int>(mirror_.size());
  if (u < 0.85) {
    r.net = static_cast<std::uint32_t>(rng_.uniform_int(0, nets - 1));
    r.kind = Kind::Local;
    r.edit = local_edit(r.net);
  } else if (u < 0.95) {
    if (have_inverse_) {
      have_inverse_ = false;
      return inverse_;
    }
    r.net = static_cast<std::uint32_t>(globals_++ % mirror_.size());
    r.kind = Kind::Global;
    inverse_ = r;
    if (rng_.chance(0.5)) {
      r.edit.kind = Edit::Kind::TightenMargins;
      r.edit.a = rng_.uniform(0.02, 0.08);
      inverse_.edit = r.edit;
      inverse_.edit.a = -r.edit.a;
    } else {
      r.edit.kind = Edit::Kind::ScaleCoupling;
      r.edit.a = factor(rng_, 0.2);
      inverse_.edit = r.edit;
      inverse_.edit.a = 1.0 / r.edit.a;
    }
    have_inverse_ = true;
  } else {
    r.net = static_cast<std::uint32_t>(signoffs_++ % mirror_.size());
    r.kind = Kind::Signoff;
  }
  return r;
}

std::vector<Request> Stream::next_burst(std::size_t size) {
  std::vector<std::uint32_t> order(mirror_.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  if (size > order.size()) size = order.size();
  std::vector<Request> burst;
  for (std::size_t k = 0; k < size; ++k) {
    const auto j = static_cast<std::size_t>(rng_.uniform_int(
        static_cast<int>(k), static_cast<int>(order.size()) - 1));
    std::swap(order[k], order[j]);
    Request r;
    r.net = order[k];
    r.kind = Kind::Burst;
    r.edit = local_edit(r.net);
    burst.push_back(r);
  }
  return burst;
}

std::string optimize_payload(const std::string& name) {
  return "net " + name + "\nmax_buffers " + std::to_string(kMaxBuffers) +
         "\n";
}

core::VgOptions session_options() {
  core::VgOptions vg;
  vg.objective = core::VgObjective::MinBuffersMeetingConstraints;
  vg.max_buffers = kMaxBuffers;
  return vg;
}

std::string solution_of(const std::string& payload) {
  std::string out;
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("reused ", 0) == 0 || line.rfind("recomputed ", 0) == 0)
      continue;
    out += line + "\n";
  }
  return out;
}

serve::Frame frame(serve::Opcode op, std::string payload, std::uint64_t id) {
  serve::Frame f;
  f.op = op;
  f.request_id = id;
  f.payload = std::move(payload);
  return f;
}

namespace {

void expect_ok(const serve::Frame& r, const char* what,
               const std::string& net) {
  if (r.op == serve::Opcode::Error)
    throw std::runtime_error(std::string(what) + " " + net + ": " +
                             r.payload);
}

}  // namespace

void load_all(serve::Client& client, const NetSet& nets) {
  for (std::size_t i = 0; i < nets.names.size(); ++i) {
    expect_ok(client.call(serve::Opcode::LoadNet, nets.payloads[i]),
              "LOAD_NET", nets.names[i]);
    expect_ok(client.call(serve::Opcode::Optimize,
                          optimize_payload(nets.names[i])),
              "OPTIMIZE", nets.names[i]);
  }
}

void load_one(serve::Session& session, const NetSet& nets, std::size_t i) {
  expect_ok(session.handle(frame(serve::Opcode::LoadNet, nets.payloads[i])),
            "LOAD_NET", nets.names[i]);
  expect_ok(session.handle(frame(serve::Opcode::Optimize,
                                 optimize_payload(nets.names[i]))),
            "OPTIMIZE", nets.names[i]);
}

void load_all(serve::Session& session, const NetSet& nets) {
  for (std::size_t i = 0; i < nets.names.size(); ++i)
    load_one(session, nets, i);
}

}  // namespace perfbench::eco
