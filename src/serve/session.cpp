#include "serve/session.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "batch/batch.hpp"
#include "io/libfile.hpp"
#include "io/netfile.hpp"
#include "obs/trace.hpp"
#include "seg/segment.hpp"
#include "sim/golden.hpp"
#include "signoff/signoff.hpp"
#include "util/units.hpp"

namespace nbuf::serve {

namespace {

using namespace nbuf::units;

// %.17g — enough digits that the text round-trips the double exactly, so
// response bytes are a pure function of the solution.
std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else if (c != '\r') {
      cur += c;
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> t;
  std::string w;
  while (in >> w) t.push_back(w);
  return t;
}

// Digits only (std::from_chars takes no sign): a "-1" wrapped to SIZE_MAX
// would reach the DP as max_buffers + 1 == 0 buckets.
std::size_t parse_index(const std::string& v, const char* what) {
  std::size_t n = 0;
  const char* end = v.data() + v.size();
  const auto [stop, ec] = std::from_chars(v.data(), end, n);
  if (ec != std::errc{} || stop != end)
    throw ProtocolError(ErrorCode::BadRequest,
                        std::string(what) + " needs a nonnegative integer, "
                                            "got '" +
                            v + "'");
  return n;
}

double parse_double(const std::string& v, const char* what) {
  std::size_t pos = 0;
  double d = 0.0;
  try {
    d = std::stod(v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos == 0 || pos != v.size() || !std::isfinite(d))
    throw ProtocolError(ErrorCode::BadRequest,
                        std::string(what) + " needs a finite number, got '" +
                            v + "'");
  return d;
}

// First line must be "net <name>" for the compute opcodes; empty string
// when the payload is not in that shape (the handler reports the error).
std::string peek_net_name(const std::string& payload) {
  const std::size_t eol = payload.find('\n');
  const std::string first =
      eol == std::string::npos ? payload : payload.substr(0, eol);
  const auto t = tokens_of(first);
  if (t.size() == 2 && t[0] == "net") return t[1];
  return {};
}

}  // namespace

struct Session::Impl {
  explicit Impl(SessionOptions o) : opt(std::move(o)) {
    if (opt.threads == 0) opt.threads = 1;
  }

  struct NetEntry {
    rct::RoutingTree base;  // binarized + segmented at LOAD_NET
    std::optional<lib::Technology> tech;
    std::unique_ptr<core::IncrementalContext> ctx;
    core::VgOptions ctx_opts;  // options the context was built with
  };

  SessionOptions opt;
  lib::BufferLibrary library = lib::default_library();
  std::map<std::string, NetEntry> nets;
  Counters counters;
  bool shutdown = false;

  NetEntry& entry_of(const std::string& name) {
    const auto it = nets.find(name);
    if (it == nets.end())
      throw ProtocolError(ErrorCode::BadState, "unknown net '" + name +
                                                   "' (LOAD_NET it first)");
    return it->second;
  }

  // "net <name>" + option lines -> (entry, effective VgOptions).
  static core::VgOptions options_from(
      const std::vector<std::string>& lines, std::size_t first) {
    core::VgOptions vg;
    vg.objective = core::VgObjective::MinBuffersMeetingConstraints;
    for (std::size_t i = first; i < lines.size(); ++i) {
      const auto t = tokens_of(lines[i]);
      if (t.empty()) continue;
      if (t[0] == "max_buffers" && t.size() == 2) {
        vg.max_buffers = parse_index(t[1], "max_buffers");
        if (vg.max_buffers == 0)
          throw ProtocolError(ErrorCode::BadRequest,
                              "max_buffers must be >= 1");
      } else if (t[0] == "noise" && t.size() == 2) {
        vg.noise_constraints = parse_index(t[1], "noise") != 0;
      } else if (t[0] == "objective" && t.size() == 2) {
        if (t[1] == "slack")
          vg.objective = core::VgObjective::MaxSlack;
        else if (t[1] == "min_buffers")
          vg.objective = core::VgObjective::MinBuffersMeetingConstraints;
        else
          throw ProtocolError(ErrorCode::BadRequest,
                              "objective must be slack|min_buffers");
      } else {
        throw ProtocolError(ErrorCode::BadRequest,
                            "unknown option line '" + lines[i] + "'");
      }
    }
    return vg;
  }

  static bool same_options(const core::VgOptions& a,
                           const core::VgOptions& b) {
    return a.max_buffers == b.max_buffers &&
           a.noise_constraints == b.noise_constraints &&
           a.objective == b.objective;
  }

  core::IncrementalContext& context_of(NetEntry& e,
                                       const core::VgOptions& vg) {
    if (e.ctx == nullptr) {
      e.ctx = std::make_unique<core::IncrementalContext>(e.base, library, vg);
      e.ctx_opts = vg;
    } else if (!same_options(e.ctx_opts, vg)) {
      throw ProtocolError(ErrorCode::BadState,
                          "net already optimized with different options; "
                          "LOAD_NET again to change them");
    }
    return *e.ctx;
  }

  // The shared solution rendering of OPTIMIZE and PERTURB responses.
  static std::string render_solution(const std::string& name,
                                     const core::IncrementalContext& ctx) {
    const core::VgResult& r = *ctx.result();
    std::string out = "ok net " + name + "\n";
    out += "feasible " + std::string(r.feasible ? "1" : "0") + "\n";
    out += "timing_met " + std::string(r.timing_met ? "1" : "0") + "\n";
    out += "buffer_count " + std::to_string(r.buffer_count) + "\n";
    out += "slack " + fmt_g(r.slack) + "\n";
    // entries() is sorted by node id, which is exactly the node-ordered
    // buffer-line promise of the wire format.
    const auto entries = r.buffers.entries();
    for (const auto& [node, type] : entries)
      out += "buffer " + std::to_string(node.value()) + " " +
             ctx.library().at(type).name + "\n";
    for (const core::CountBest& c : r.per_count)
      out += "count " + std::to_string(c.count) + " " + fmt_g(c.slack) +
             " " + fmt_g(c.noise_slack) + " " + (c.noise_ok ? "1" : "0") +
             "\n";
    out += "reused " + std::to_string(ctx.stats().last_reused) + "\n";
    out += "recomputed " + std::to_string(ctx.stats().last_recomputed) +
           "\n";
    return out;
  }

  std::string do_load_net(const std::string& payload, Counters& d) {
    auto text = payload;
    double segment_um = opt.segment_um;
    // An optional leading "segment <um>" line overrides the granularity.
    const std::size_t eol = text.find('\n');
    const std::string first =
        eol == std::string::npos ? text : text.substr(0, eol);
    const auto t = tokens_of(first);
    if (t.size() == 2 && t[0] == "segment") {
      segment_um = parse_double(t[1], "segment");
      if (segment_um <= 0.0)
        throw ProtocolError(ErrorCode::BadRequest, "segment must be > 0");
      text = eol == std::string::npos ? std::string{} : text.substr(eol + 1);
    }
    io::NetFile net;
    try {
      std::istringstream in(text);
      net = io::read_net(in, library);
    } catch (const io::ParseError& e) {
      throw ProtocolError(ErrorCode::BadRequest,
                          std::string("net parse failed: ") + e.what());
    }
    if (net.name.empty())
      throw ProtocolError(ErrorCode::BadRequest,
                          "net file needs a 'name <net-name>' line");
    NetEntry e;
    net.tree.binarize();
    (void)seg::segment(net.tree, {segment_um});
    e.base = std::move(net.tree);
    e.tech = net.tech;
    // A PERTURB before any OPTIMIZE builds its context with the same
    // defaults an option-less OPTIMIZE would use.
    e.ctx_opts = options_from({}, 0);
    const std::size_t nodes = e.base.node_count();
    const std::size_t sinks = e.base.sink_count();
    nets.insert_or_assign(net.name, std::move(e));
    ++d.nets_loaded;
    return "ok net " + net.name + " nodes " + std::to_string(nodes) +
           " sinks " + std::to_string(sinks) + "\n";
  }

  std::string do_load_lib(const std::string& payload, Counters& d) {
    io::LibFile f;
    try {
      std::istringstream in(payload);
      f = io::read_library(in);
    } catch (const io::ParseError& e) {
      throw ProtocolError(ErrorCode::BadRequest,
                          std::string("library parse failed: ") + e.what());
    }
    // Existing contexts keep the library they were built with; reload nets
    // to re-optimize under the new one.
    library = std::move(f.library);
    ++d.libs_loaded;
    return "ok lib types " + std::to_string(library.size()) + "\n";
  }

  std::string do_optimize(const std::string& payload, Counters& d) {
    const auto lines = split_lines(payload);
    const std::string name = peek_net_name(payload);
    if (name.empty())
      throw ProtocolError(ErrorCode::BadRequest,
                          "OPTIMIZE payload must start with 'net <name>'");
    NetEntry& e = entry_of(name);
    const core::VgOptions vg = options_from(lines, 1);
    core::IncrementalContext& ctx = context_of(e, vg);
    NBUF_TRACE_SPAN_TAGGED("serve.optimize", ctx.tree().node_count());
    ctx.invalidate_all();  // OPTIMIZE is by definition a cold full run
    (void)ctx.optimize();
    ++d.optimizes;
    d.subtrees_reused += ctx.stats().last_reused;
    d.subtrees_recomputed += ctx.stats().last_recomputed;
    return render_solution(name, ctx);
  }

  // One edit line of a PERTURB payload as a core::Perturbation, checked
  // against `tree`: the net as the payload's earlier lines leave it.
  static core::Perturbation parse_edit(const rct::RoutingTree& tree,
                                       const std::vector<std::string>& t,
                                       const std::string& line) {
    using Kind = core::Perturbation::Kind;
    const auto node_arg = [&](const std::string& v) {
      const std::size_t idx = parse_index(v, "node");
      if (idx >= tree.node_count())
        throw ProtocolError(ErrorCode::BadRequest,
                            "node " + v + " out of range (tree has " +
                                std::to_string(tree.node_count()) +
                                " nodes)");
      const auto id = rct::NodeId{static_cast<std::uint32_t>(idx)};
      if (id == tree.source())
        throw ProtocolError(ErrorCode::BadRequest,
                            "the source node has no parent wire");
      return id;
    };
    core::Perturbation p;
    if (t[0] == "scale_wire" && t.size() == 5) {
      p.kind = Kind::WireScale;
      p.node = node_arg(t[1]);
      p.res_factor = parse_double(t[2], "res_factor");
      p.cap_factor = parse_double(t[3], "cap_factor");
      p.cur_factor = parse_double(t[4], "cur_factor");
    } else if (t[0] == "set_sink" && t.size() == 5) {
      const std::size_t idx = parse_index(t[1], "sink");
      if (idx >= tree.sink_count())
        throw ProtocolError(ErrorCode::BadRequest,
                            "sink " + t[1] + " out of range (net has " +
                                std::to_string(tree.sink_count()) +
                                " sinks)");
      p.kind = Kind::SinkSet;
      p.sink = rct::SinkId{static_cast<std::uint32_t>(idx)};
      p.sink_info = tree.sink(p.sink);
      p.sink_info.cap = parse_double(t[2], "cap_ff") * fF;
      p.sink_info.required_arrival = parse_double(t[3], "rat_ps") * ps;
      p.sink_info.noise_margin = parse_double(t[4], "nm_v");
    } else if (t[0] == "split_wire" && t.size() == 3) {
      p.kind = Kind::WireSplit;
      p.node = node_arg(t[1]);
      p.dist_above = parse_double(t[2], "dist_um");
      const double len = tree.node(p.node).parent_wire.length;
      if (!(p.dist_above > 0.0 && p.dist_above < len))
        throw ProtocolError(ErrorCode::BadRequest,
                            "split distance " + t[2] +
                                " outside (0, wire length " + fmt_g(len) +
                                ")");
    } else if (t[0] == "tighten_margins" && t.size() == 2) {
      p.kind = Kind::TightenMargins;
      p.delta = parse_double(t[1], "delta_v");
    } else if (t[0] == "scale_coupling" && t.size() == 2) {
      p.kind = Kind::ScaleCoupling;
      p.factor = parse_double(t[1], "factor");
    } else {
      throw ProtocolError(ErrorCode::BadRequest,
                          "unknown edit line '" + line + "'");
    }
    return p;
  }

  std::string do_perturb(const std::string& payload, Counters& d) {
    const auto lines = split_lines(payload);
    const std::string name = peek_net_name(payload);
    if (name.empty())
      throw ProtocolError(ErrorCode::BadRequest,
                          "PERTURB payload must start with 'net <name>'");
    NetEntry& e = entry_of(name);
    const rct::RoutingTree& tree = e.ctx ? e.ctx->tree() : e.base;
    NBUF_TRACE_SPAN_TAGGED("serve.perturb", tree.node_count());
    // Every line is parsed before the first edit lands (and before a first
    // PERTURB builds the context), so a rejected request leaves the net as
    // it was. From the second edit on, lines are checked against a scratch
    // copy carrying the earlier edits (a split adds a node and shortens a
    // wire).
    bool full = false;
    std::vector<core::Perturbation> edits;
    std::optional<rct::RoutingTree> staged;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const auto t = tokens_of(lines[i]);
      if (t.empty()) continue;
      if (t[0] == "full" && t.size() == 2) {
        full = parse_index(t[1], "full") != 0;
        continue;
      }
      if (!edits.empty()) {
        if (!staged) staged = tree;
        (void)core::apply_perturbation(*staged, edits.back());
      }
      edits.push_back(parse_edit(staged ? *staged : tree, t, lines[i]));
    }
    if (edits.empty())
      throw ProtocolError(ErrorCode::BadRequest,
                          "PERTURB needs at least one edit line");
    core::IncrementalContext& ctx = context_of(e, e.ctx_opts);
    for (const core::Perturbation& p : edits) (void)ctx.apply(p);
    // "full 1" discards the cache after the edits: a from-scratch run on
    // the perturbed tree, the cold twin an incremental answer must match
    // byte for byte (tests/test_serve.cpp, perfbench serve_eco's oracle).
    if (full) ctx.invalidate_all();
    (void)ctx.optimize();
    ++d.perturbs;
    d.subtrees_reused += ctx.stats().last_reused;
    d.subtrees_recomputed += ctx.stats().last_recomputed;
    return render_solution(name, ctx);
  }

  std::string do_signoff(const std::string& payload, Counters& d) {
    const std::string name = peek_net_name(payload);
    if (name.empty())
      throw ProtocolError(ErrorCode::BadRequest,
                          "SIGNOFF payload must start with 'net <name>'");
    NetEntry& e = entry_of(name);
    if (e.ctx == nullptr || e.ctx->result() == nullptr)
      throw ProtocolError(ErrorCode::BadState,
                          "net '" + name + "' has no solution to sign off "
                                           "(OPTIMIZE it first)");
    NBUF_TRACE_SPAN_TAGGED("serve.signoff", e.ctx->tree().node_count());
    signoff::SignoffOptions so;
    so.golden = sim::golden_options_from(
        e.tech.has_value() ? *e.tech : lib::default_technology());
    const signoff::SignoffReport rep =
        signoff::verify(name, e.ctx->tree(), e.ctx->result()->buffers,
                        e.ctx->library(), so);
    ++d.signoffs;
    std::string out = "ok net " + name + "\n";
    out += "pass " + std::string(rep.pass() ? "1" : "0") + "\n";
    out += "violations " + std::to_string(rep.violations.size()) + "\n";
    out += "worst_golden_slack " + fmt_g(rep.worst_golden_slack) + "\n";
    out += "worst_metric_slack " + fmt_g(rep.worst_metric_slack) + "\n";
    out += "worst_timing_slack " + fmt_g(rep.worst_timing_slack) + "\n";
    return out;
  }

  std::string do_stats() const {
    std::string out = "ok stats\n";
    out += "requests " + std::to_string(counters.requests) + "\n";
    out += "errors " + std::to_string(counters.errors) + "\n";
    out += "nets " + std::to_string(nets.size()) + "\n";
    out += "nets_loaded " + std::to_string(counters.nets_loaded) + "\n";
    out += "libs_loaded " + std::to_string(counters.libs_loaded) + "\n";
    out += "optimizes " + std::to_string(counters.optimizes) + "\n";
    out += "perturbs " + std::to_string(counters.perturbs) + "\n";
    out += "signoffs " + std::to_string(counters.signoffs) + "\n";
    out += "subtrees_reused " + std::to_string(counters.subtrees_reused) +
           "\n";
    out += "subtrees_recomputed " +
           std::to_string(counters.subtrees_recomputed) + "\n";
    return out;
  }

  // Dispatches one request into its response and the counter movement `d`
  // (folded serially in request order, so parallel handlers never touch
  // shared counters); never throws.
  Frame dispatch(const Frame& req, Counters& d) {
    Frame resp;
    resp.request_id = req.request_id;
    try {
      switch (req.op) {
        case Opcode::LoadNet:
          resp.payload = do_load_net(req.payload, d);
          break;
        case Opcode::LoadLib:
          resp.payload = do_load_lib(req.payload, d);
          break;
        case Opcode::Optimize:
          resp.payload = do_optimize(req.payload, d);
          break;
        case Opcode::Perturb:
          resp.payload = do_perturb(req.payload, d);
          break;
        case Opcode::Signoff:
          resp.payload = do_signoff(req.payload, d);
          break;
        case Opcode::Stats:
          resp.payload = do_stats();
          break;
        case Opcode::Shutdown:
          shutdown = true;
          resp.payload = "ok shutdown\n";
          break;
        default:
          throw ProtocolError(
              ErrorCode::BadOpcode,
              "unknown opcode " +
                  std::to_string(static_cast<std::uint16_t>(req.op)));
      }
      resp.op = req.op;
    } catch (const ProtocolError& e) {
      resp.op = Opcode::Error;
      resp.payload = error_payload(e.code(), e.what());
      ++d.errors;
    } catch (const std::exception& e) {
      resp.op = Opcode::Error;
      resp.payload = error_payload(ErrorCode::Internal, e.what());
      ++d.errors;
    }
    return resp;
  }

  // True when the request may run concurrently with other compute requests
  // of the same batch (its handler touches only its own net's entry).
  static bool parallel_safe(const Frame& f) {
    return f.op == Opcode::Optimize || f.op == Opcode::Perturb ||
           f.op == Opcode::Signoff;
  }

  std::vector<Frame> handle_batch(const std::vector<Frame>& requests) {
    std::vector<Frame> responses(requests.size());
    std::size_t i = 0;
    while (i < requests.size()) {
      // Grow a maximal run of compute requests on pairwise-distinct nets.
      std::size_t j = i;
      std::set<std::string> run_nets;
      while (j < requests.size() && parallel_safe(requests[j])) {
        const std::string name = peek_net_name(requests[j].payload);
        // An unparsable name is handled serially so its error response
        // keeps its place in the stream.
        if (name.empty() || !run_nets.insert(name).second) break;
        ++j;
      }
      if (j - i > 1) {
        const std::size_t base = i;
        const std::size_t n = j - i;
        counters.requests += n;  // before STATS later in the batch
        std::vector<Counters> deltas(n);
        batch::parallel_for_index(n, opt.threads, [&](std::size_t k) {
          responses[base + k] =
              dispatch(requests[base + k], deltas[k]);
        });
        for (const Counters& d : deltas) counters += d;  // index order
        i = j;
        continue;
      }
      ++counters.requests;
      Counters d;
      responses[i] = dispatch(requests[i], d);
      counters += d;
      ++i;
    }
    return responses;
  }
};

Session::Session(SessionOptions opt)
    : impl_(std::make_unique<Impl>(std::move(opt))) {}
Session::~Session() = default;
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;

Frame Session::handle(const Frame& request) {
  return impl_->handle_batch({request}).front();
}

std::vector<Frame> Session::handle_batch(
    const std::vector<Frame>& requests) {
  return impl_->handle_batch(requests);
}

bool Session::shutdown_requested() const noexcept {
  return impl_->shutdown;
}

const Session::Counters& Session::counters() const noexcept {
  return impl_->counters;
}

}  // namespace nbuf::serve
