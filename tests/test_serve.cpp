// The optimization service (src/serve): protocol framing, session
// semantics, the PERTURB-vs-cold bit-identity contract, the corrupt-frame
// robustness corpus (tests/data/corrupt/rpc_*), and the end-to-end
// determinism contract — identical request streams produce bit-identical
// response bytes at any worker-thread count and across interleaved
// concurrent sessions. Runs in the blocking TSan CI lane.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstdint>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/netfile.hpp"
#include "lib/buffer.hpp"
#include "netgen/netgen.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "steiner/builders.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace nbuf;
using serve::ErrorCode;
using serve::Frame;
using serve::FrameHeader;
using serve::HeaderError;
using serve::Opcode;

// --- fixtures -------------------------------------------------------------

// A seed-stable netgen net serialized to LOAD_NET payload text. The server
// re-reads, binarizes, and segments it, so node indices inside the session
// are deterministic too.
std::string net_payload(std::uint64_t seed, const std::string& name) {
  util::Rng rng(seed);
  const lib::BufferLibrary lib = lib::default_library();
  netgen::TestbenchOptions opt;
  opt.min_span = 2500.0;
  opt.max_span = 6000.0;
  netgen::GeneratedNet g = netgen::generate_net(rng, lib, opt, 0);
  std::ostringstream out;
  io::write_net(out, name, g.tree, rct::BufferAssignment{}, lib);
  return out.str();
}

// Branchy clock/control-style nets, 8/16/32 sinks round-robin on `i`, with
// every edge `400 + 150 * (i % 4)` µm long. On such a tree a local edit
// dirties one root spine and every sibling subtree stays cached.
std::string balanced_payload(std::size_t i, const std::string& name) {
  using namespace nbuf::units;
  rct::SinkInfo proto;
  proto.name = "s";
  proto.cap = (8.0 + static_cast<double>(i % 5) * 4.0) * fF;
  proto.required_arrival = 3000.0 * ps;  // loose: feasibility guaranteed
  proto.noise_margin = 0.8;
  const lib::BufferLibrary lib = lib::default_library();
  const rct::RoutingTree tree = steiner::make_balanced_tree(
      3 + static_cast<int>(i % 3), 400.0 + 150.0 * static_cast<double>(i % 4),
      rct::Driver{"drv", 150.0, 30.0 * ps}, proto, lib::default_technology());
  std::ostringstream out;
  io::write_net(out, name, tree, rct::BufferAssignment{}, lib);
  return out.str();
}

Frame req(Opcode op, std::string payload, std::uint64_t id = 1) {
  Frame f;
  f.op = op;
  f.request_id = id;
  f.payload = std::move(payload);
  return f;
}

bool is_ok(const Frame& f) {
  return f.op != Opcode::Error && f.payload.rfind("ok ", 0) == 0;
}

// The solution portion of an OPTIMIZE/PERTURB response: everything except
// the trailing DP-effort lines ("reused N" / "recomputed N"), which
// legitimately differ between an incremental run and the cold run it must
// otherwise match byte-for-byte.
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

// The value after `key` on the first line starting with it, or "" if absent.
std::string field_of(const std::string& payload, const std::string& key) {
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key + " ", 0) == 0) return line.substr(key.size() + 1);
  return {};
}

// --- protocol framing -----------------------------------------------------

TEST(ServeProtocol, HeaderEncodeDecodeRoundTrip) {
  FrameHeader h;
  h.opcode = static_cast<std::uint16_t>(Opcode::Perturb);
  h.request_id = 0x0123456789ABCDEFull;
  h.payload_len = 4096;
  unsigned char bytes[serve::kHeaderSize];
  serve::encode_header(h, bytes);
  // Little-endian magic: "FUBN" on the wire read low byte first.
  EXPECT_EQ(bytes[0], 0x46);  // 'F'
  EXPECT_EQ(bytes[3], 0x4E);  // 'N'
  const FrameHeader back = serve::decode_header(bytes);
  EXPECT_EQ(back.magic, serve::kMagic);
  EXPECT_EQ(back.version, serve::kVersion);
  EXPECT_EQ(back.opcode, h.opcode);
  EXPECT_EQ(back.request_id, h.request_id);
  EXPECT_EQ(back.payload_len, h.payload_len);
  EXPECT_EQ(serve::validate_header(back), HeaderError::None);
}

TEST(ServeProtocol, ValidateHeaderCatchesEachFault) {
  FrameHeader h;
  h.magic = 0xDEADBEEF;
  EXPECT_EQ(serve::validate_header(h), HeaderError::BadMagic);
  h = FrameHeader{};
  h.version = 2;
  EXPECT_EQ(serve::validate_header(h), HeaderError::BadVersion);
  h = FrameHeader{};
  h.payload_len = serve::kMaxPayload + 1;
  EXPECT_EQ(serve::validate_header(h), HeaderError::Oversized);
}

TEST(ServeProtocol, EncodeFrameIsHeaderPlusPayload) {
  const Frame f = req(Opcode::Stats, "abc", 42);
  const std::string bytes = serve::encode_frame(f);
  ASSERT_EQ(bytes.size(), serve::kHeaderSize + 3);
  const FrameHeader h = serve::decode_header(
      reinterpret_cast<const unsigned char*>(bytes.data()));
  EXPECT_EQ(h.opcode, static_cast<std::uint16_t>(Opcode::Stats));
  EXPECT_EQ(h.request_id, 42u);
  EXPECT_EQ(h.payload_len, 3u);
  EXPECT_EQ(bytes.substr(serve::kHeaderSize), "abc");
}

TEST(ServeProtocol, ErrorPayloadsAreTyped) {
  EXPECT_EQ(serve::error_payload(ErrorCode::BadRequest, "nope"),
            "error bad_request: nope");
  EXPECT_EQ(serve::error_payload(ErrorCode::BadState, "x"),
            "error bad_state: x");
  const std::string framing = serve::error_payload(HeaderError::BadMagic);
  EXPECT_EQ(framing.rfind("error bad_magic:", 0), 0u) << framing;
}

// --- session semantics (no sockets) ---------------------------------------

TEST(ServeSession, LoadOptimizeSignoffStatsLifecycle) {
  serve::Session session;
  const Frame loaded =
      session.handle(req(Opcode::LoadNet, net_payload(31, "alpha"), 1));
  ASSERT_TRUE(is_ok(loaded)) << loaded.payload;
  EXPECT_EQ(loaded.request_id, 1u);
  // One-line shape report: "ok net alpha nodes N sinks M".
  const std::size_t nodes_at = loaded.payload.find("nodes ");
  ASSERT_NE(nodes_at, std::string::npos) << loaded.payload;
  EXPECT_NE(loaded.payload.find("net alpha"), std::string::npos);
  EXPECT_GT(std::stoul(loaded.payload.substr(nodes_at + 6)), 0u);

  const Frame opt =
      session.handle(req(Opcode::Optimize, "net alpha\n", 2));
  ASSERT_TRUE(is_ok(opt)) << opt.payload;
  EXPECT_EQ(field_of(opt.payload, "feasible"), "1");
  EXPECT_NE(field_of(opt.payload, "slack"), "");
  // A cold run serves nothing from cache.
  EXPECT_EQ(field_of(opt.payload, "reused"), "0");

  const Frame so = session.handle(req(Opcode::Signoff, "net alpha\n", 3));
  ASSERT_TRUE(is_ok(so)) << so.payload;
  EXPECT_EQ(field_of(so.payload, "pass"), "1") << so.payload;

  const Frame st = session.handle(req(Opcode::Stats, "", 4));
  ASSERT_TRUE(is_ok(st)) << st.payload;
  EXPECT_EQ(field_of(st.payload, "requests"), "4");
  EXPECT_EQ(field_of(st.payload, "nets_loaded"), "1");
  EXPECT_EQ(field_of(st.payload, "optimizes"), "1");
  EXPECT_EQ(field_of(st.payload, "signoffs"), "1");
  EXPECT_EQ(field_of(st.payload, "errors"), "0");
  EXPECT_FALSE(session.shutdown_requested());
}

TEST(ServeSession, RequestFaultsAreTypedAndCounted) {
  serve::Session session;
  // Unknown net: valid request, missing prerequisite -> bad_state.
  Frame r = session.handle(req(Opcode::Optimize, "net ghost\n"));
  EXPECT_EQ(r.op, Opcode::Error);
  EXPECT_EQ(r.payload.rfind("error bad_state:", 0), 0u) << r.payload;
  // Unknown opcode survives dispatch as bad_opcode.
  r = session.handle(req(static_cast<Opcode>(999), ""));
  EXPECT_EQ(r.op, Opcode::Error);
  EXPECT_EQ(r.payload.rfind("error bad_opcode:", 0), 0u) << r.payload;
  // Unparsable net text -> bad_request.
  r = session.handle(req(Opcode::LoadNet, "driver zz nope\n"));
  EXPECT_EQ(r.op, Opcode::Error);
  EXPECT_EQ(r.payload.rfind("error bad_request:", 0), 0u) << r.payload;
  // PERTURB needs at least one edit line.
  ASSERT_TRUE(is_ok(session.handle(
      req(Opcode::LoadNet, net_payload(32, "beta")))));
  r = session.handle(req(Opcode::Perturb, "net beta\n"));
  EXPECT_EQ(r.op, Opcode::Error);
  EXPECT_EQ(r.payload.rfind("error bad_request:", 0), 0u) << r.payload;
  // Out-of-range indices are pre-validated, not contract crashes.
  r = session.handle(
      req(Opcode::Perturb, "net beta\nscale_wire 999999 1.1 1.1 1.1\n"));
  EXPECT_EQ(r.op, Opcode::Error);
  EXPECT_EQ(r.payload.rfind("error bad_request:", 0), 0u) << r.payload;
  const Frame st = session.handle(req(Opcode::Stats, ""));
  EXPECT_EQ(field_of(st.payload, "errors"), "5") << st.payload;
}

// Index and count fields take digits only: a wrapped "-1" would make
// max_buffers SIZE_MAX, and max_buffers + 1 zero DP buckets.
TEST(ServeSession, SignedIndicesAreTypedBadRequests) {
  serve::Session session;
  ASSERT_TRUE(is_ok(session.handle(
      req(Opcode::LoadNet, net_payload(34, "delta")))));
  for (const char* payload :
       {"net delta\nmax_buffers -1\n", "net delta\nmax_buffers +3\n"}) {
    const Frame r = session.handle(req(Opcode::Optimize, payload));
    EXPECT_EQ(r.op, Opcode::Error) << payload;
    EXPECT_EQ(r.payload.rfind("error bad_request:", 0), 0u) << r.payload;
  }
  const Frame r = session.handle(
      req(Opcode::Perturb, "net delta\nscale_wire -1 1.1 1.1 1.1\n"));
  EXPECT_EQ(r.op, Opcode::Error);
  EXPECT_EQ(r.payload.rfind("error bad_request:", 0), 0u) << r.payload;
  // The session keeps serving, with the faults counted.
  const Frame opt = session.handle(req(Opcode::Optimize, "net delta\n"));
  ASSERT_TRUE(is_ok(opt)) << opt.payload;
  const Frame st = session.handle(req(Opcode::Stats, ""));
  EXPECT_EQ(field_of(st.payload, "errors"), "3") << st.payload;
  EXPECT_EQ(field_of(st.payload, "optimizes"), "1") << st.payload;
}

TEST(ServeSession, ConflictingOptimizeOptionsAreBadState) {
  serve::Session session;
  ASSERT_TRUE(is_ok(session.handle(
      req(Opcode::LoadNet, net_payload(33, "gamma")))));
  ASSERT_TRUE(is_ok(session.handle(
      req(Opcode::Optimize, "net gamma\nmax_buffers 4\n"))));
  const Frame r = session.handle(
      req(Opcode::Optimize, "net gamma\nmax_buffers 6\n"));
  EXPECT_EQ(r.op, Opcode::Error);
  EXPECT_EQ(r.payload.rfind("error bad_state:", 0), 0u) << r.payload;
  // Reloading the net resets the context, so new options work.
  ASSERT_TRUE(is_ok(session.handle(
      req(Opcode::LoadNet, net_payload(33, "gamma")))));
  EXPECT_TRUE(is_ok(session.handle(
      req(Opcode::Optimize, "net gamma\nmax_buffers 6\n"))));
}

// The heart of the service: an incremental PERTURB answer must be
// bit-identical (modulo the DP-effort trailer) to "apply the same edits,
// discard the cache, re-run cold" — across a chain of successive edits.
TEST(ServeSession, PerturbMatchesFullColdRerunAcrossEditChain) {
  const std::vector<std::string> edits = {
      "scale_wire 2 1.6 1.3 0.8\n",
      "set_sink 0 22 1450 0.75\n",
      "scale_wire 4 0.7 0.9 1.4\n",
      "tighten_margins 0.02\n",
      "scale_wire 1 1.2 1.2 1.2\n",
  };
  serve::Session inc;   // incremental PERTURB
  serve::Session cold;  // same edits + "full 1" (cache discarded)
  for (serve::Session* s : {&inc, &cold}) {
    ASSERT_TRUE(is_ok(s->handle(
        req(Opcode::LoadNet, net_payload(34, "delta")))));
    ASSERT_TRUE(is_ok(s->handle(req(Opcode::Optimize, "net delta\n"))));
  }
  bool reused_any = false;
  for (const std::string& edit : edits) {
    const Frame a = inc.handle(req(Opcode::Perturb, "net delta\n" + edit));
    const Frame b = cold.handle(
        req(Opcode::Perturb, "net delta\nfull 1\n" + edit));
    ASSERT_TRUE(is_ok(a)) << a.payload;
    ASSERT_TRUE(is_ok(b)) << b.payload;
    EXPECT_EQ(solution_of(a.payload), solution_of(b.payload))
        << "incremental diverged from cold on edit: " << edit;
    EXPECT_EQ(field_of(b.payload, "reused"), "0");
    if (field_of(a.payload, "reused") != "0") reused_any = true;
  }
  // The local edits above must actually exercise the cache.
  EXPECT_TRUE(reused_any);
}

// The serving claim as a deterministic gate: over a stream of 120 local
// edits, round-robin across 12 branchy nets segmented at 150 µm, every
// incremental answer equals its "full 1" cold twin, and the incremental
// stream recomputes at most a quarter of the subtrees its twins do. Exact
// subtree counts, not wall time, so the gate cannot flake on a busy host;
// perfbench serve_eco owns the timing.
TEST(ServeSession, PerturbStreamMatchesColdTwinsAtAQuarterOfTheirWork) {
  constexpr std::size_t kNets = 12;
  constexpr std::size_t kCases = 120;
  serve::Session inc;   // incremental PERTURB
  serve::Session cold;  // same edits + "full 1" (cache discarded)
  std::vector<std::string> names;
  std::vector<std::size_t> nodes, sinks;
  for (std::size_t i = 0; i < kNets; ++i) {
    names.push_back("tree" + std::to_string(i));
    const std::string payload =
        "segment 150\n" + balanced_payload(i, names.back());
    for (serve::Session* s : {&inc, &cold}) {
      const Frame loaded = s->handle(req(Opcode::LoadNet, payload));
      ASSERT_TRUE(is_ok(loaded)) << loaded.payload;
      const std::size_t at = loaded.payload.find("nodes ");
      ASSERT_NE(at, std::string::npos) << loaded.payload;
      std::size_t n = 0, m = 0;
      ASSERT_EQ(std::sscanf(loaded.payload.c_str() + at, "nodes %zu sinks %zu",
                            &n, &m),
                2);
      if (s == &inc) {
        nodes.push_back(n);
        sinks.push_back(m);
      }
      ASSERT_TRUE(is_ok(s->handle(
          req(Opcode::Optimize, "net " + names.back() + "\nmax_buffers 8\n"))));
    }
  }
  // Wire rescales (never node 0, the source) and sink retunes; consecutive
  // cases hit distinct nets, so each burst coalesces onto the worker pool.
  std::vector<std::string> edits;
  std::vector<Frame> inc_burst, cold_burst;
  for (std::size_t c = 0; c < kCases; ++c) {
    const std::size_t net = c % kNets;
    char buf[128];
    if (c % 3 == 2) {
      std::snprintf(buf, sizeof(buf), "set_sink %zu %.1f %.1f %.2f",
                    c % sinks[net], 8.0 + static_cast<double>(c % 24),
                    1200.0 + 10.0 * static_cast<double>(c % 40),
                    0.6 + 0.01 * static_cast<double>(c % 25));
    } else {
      std::snprintf(buf, sizeof(buf), "scale_wire %zu %.2f %.2f %.2f",
                    1 + (c * 7) % (nodes[net] - 1),
                    0.7 + 0.01 * static_cast<double>(c % 120),
                    0.8 + 0.01 * static_cast<double>(c % 80),
                    0.9 + 0.01 * static_cast<double>(c % 40));
    }
    edits.emplace_back(buf);
    const std::string head = "net " + names[net] + "\n";
    inc_burst.push_back(req(Opcode::Perturb, head + edits.back() + "\n", c));
    cold_burst.push_back(
        req(Opcode::Perturb, head + "full 1\n" + edits.back() + "\n", c));
  }
  const std::vector<Frame> a = inc.handle_batch(inc_burst);
  const std::vector<Frame> b = cold.handle_batch(cold_burst);
  std::size_t inc_work = 0, cold_work = 0;
  for (std::size_t c = 0; c < kCases; ++c) {
    ASSERT_TRUE(is_ok(a[c])) << a[c].payload;
    ASSERT_TRUE(is_ok(b[c])) << b[c].payload;
    EXPECT_EQ(solution_of(a[c].payload), solution_of(b[c].payload))
        << "case " << c << " diverged from its cold twin: " << edits[c];
    inc_work += std::stoul(field_of(a[c].payload, "recomputed"));
    cold_work += std::stoul(field_of(b[c].payload, "recomputed"));
  }
  EXPECT_LE(4 * inc_work, cold_work)
      << "incremental stream recomputed " << inc_work
      << " subtrees against " << cold_work << " cold";
}

// A PERTURB is all or nothing: every edit line is checked against the tree
// as the earlier lines leave it before the first one lands, so a rejected
// request leaves the net exactly as a session that never saw it.
TEST(ServeSession, RejectedPerturbLeavesTheNetUntouched) {
  // Unsegmented (every edge is 400 µm < 1000), so wire lengths are known.
  const std::string payload = "segment 1000\n" + balanced_payload(0, "zeta");
  const std::string optimize = "net zeta\nmax_buffers 6\n";
  serve::Session hit;    // sees the rejected requests
  serve::Session clean;  // never does
  std::size_t nodes = 0;
  for (serve::Session* s : {&hit, &clean}) {
    const Frame loaded = s->handle(req(Opcode::LoadNet, payload));
    ASSERT_TRUE(is_ok(loaded)) << loaded.payload;
    nodes = std::stoul(
        loaded.payload.substr(loaded.payload.find("nodes ") + 6));
  }
  const std::string next = std::to_string(nodes);      // a split's new node
  const std::string beyond = std::to_string(nodes + 1);
  for (const std::string& edits :
       {std::string("set_sink 0 200 100 0.3\nscale_wire 99999 1 1 1\n"),
        // Node 1's wire is 100 µm once the first line splits it.
        std::string("split_wire 1 100\nsplit_wire 1 200\n"),
        "split_wire 2 100\nscale_wire 3 1.5 1.5 1.5\nscale_wire " + beyond +
            " 1 1 1\n",
        std::string("tighten_margins 0.1\nscale_wire 1 1 1 one\n")}) {
    const Frame r = hit.handle(req(Opcode::Perturb, "net zeta\n" + edits));
    EXPECT_EQ(r.op, Opcode::Error) << edits;
    EXPECT_EQ(r.payload.rfind("error bad_request:", 0), 0u) << r.payload;
  }
  // Rejected before any OPTIMIZE, they fixed no options either.
  for (serve::Session* s : {&hit, &clean}) {
    const Frame r = s->handle(req(Opcode::Optimize, optimize));
    ASSERT_TRUE(is_ok(r)) << r.payload;
  }
  // A line that is valid only after an earlier split is accepted.
  for (serve::Session* s : {&hit, &clean}) {
    const Frame r = s->handle(req(
        Opcode::Perturb,
        "net zeta\nsplit_wire 4 150\nscale_wire " + next + " 1.2 1.2 1.2\n"));
    ASSERT_TRUE(is_ok(r)) << r.payload;
  }
  const Frame after = hit.handle(req(Opcode::Optimize, optimize));
  const Frame fresh = clean.handle(req(Opcode::Optimize, optimize));
  ASSERT_TRUE(is_ok(after)) << after.payload;
  EXPECT_EQ(after.payload, fresh.payload);
}

TEST(ServeSession, PerturbBeforeOptimizeUsesDefaultOptions) {
  serve::Session a;
  serve::Session b;
  const std::string edit = "net eps\nscale_wire 3 1.5 1.5 1.0\n";
  ASSERT_TRUE(is_ok(a.handle(req(Opcode::LoadNet, net_payload(35, "eps")))));
  ASSERT_TRUE(is_ok(b.handle(req(Opcode::LoadNet, net_payload(35, "eps")))));
  const Frame direct = a.handle(req(Opcode::Perturb, edit));
  ASSERT_TRUE(is_ok(direct)) << direct.payload;
  // Same edit after an option-less OPTIMIZE must pick the same options and
  // land on the same solution.
  ASSERT_TRUE(is_ok(b.handle(req(Opcode::Optimize, "net eps\n"))));
  const Frame after = b.handle(req(Opcode::Perturb, edit));
  ASSERT_TRUE(is_ok(after)) << after.payload;
  EXPECT_EQ(solution_of(direct.payload), solution_of(after.payload));
}

// Coalesced batches must be indistinguishable from serial handling: same
// response bytes in request order, at any worker-thread count.
TEST(ServeSession, BatchCoalescingMatchesSerialAtAnyThreadCount) {
  const std::vector<std::string> names = {"b0", "b1", "b2", "b3"};
  auto script = [&]() {
    std::vector<Frame> frames;
    std::uint64_t id = 1;
    for (std::size_t i = 0; i < names.size(); ++i)
      frames.push_back(req(Opcode::LoadNet,
                           net_payload(40 + i, names[i]), id++));
    for (const std::string& n : names)
      frames.push_back(req(Opcode::Optimize, "net " + n + "\n", id++));
    for (const std::string& n : names)
      frames.push_back(req(Opcode::Perturb,
                           "net " + n + "\nscale_wire 2 1.3 1.1 0.9\n",
                           id++));
    frames.push_back(req(Opcode::Stats, "", id++));
    return frames;
  }();

  serve::Session serial({/*threads=*/1, /*segment_um=*/500.0});
  std::vector<Frame> expected;
  for (const Frame& f : script) expected.push_back(serial.handle(f));

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    serve::Session pooled({threads, 500.0});
    const std::vector<Frame> got = pooled.handle_batch(script);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].op, expected[i].op) << "frame " << i;
      EXPECT_EQ(got[i].request_id, expected[i].request_id);
      EXPECT_EQ(got[i].payload, expected[i].payload)
          << "frame " << i << " diverged at " << threads << " threads";
    }
  }
}

// --- end-to-end over sockets ----------------------------------------------

TEST(ServeEndToEnd, TcpSessionLifecycleWithShutdown) {
  serve::ServerOptions opt;
  opt.threads = 2;
  serve::Server server(opt);
  server.start();
  ASSERT_NE(server.port(), 0);

  serve::Client client = serve::Client::connect("127.0.0.1", server.port());
  const std::vector<std::pair<Opcode, std::string>> script = {
      {Opcode::LoadNet, net_payload(50, "wire9")},
      {Opcode::Optimize, "net wire9\n"},
      {Opcode::Perturb, "net wire9\nset_sink 0 18 1500 0.7\n"},
      {Opcode::Signoff, "net wire9\n"},
      {Opcode::Stats, ""},
  };
  const std::vector<Frame> responses = client.pipeline(script);
  ASSERT_EQ(responses.size(), script.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(is_ok(responses[i])) << i << ": " << responses[i].payload;
    EXPECT_EQ(responses[i].request_id, i + 1);
  }
  const Frame bye = client.call(Opcode::Shutdown, "");
  EXPECT_TRUE(is_ok(bye)) << bye.payload;
  server.wait();  // SHUTDOWN must actually stop the server
}

TEST(ServeEndToEnd, UnixSocketSession) {
  serve::ServerOptions opt;
  opt.unix_path = testing::TempDir() + "nbuf_serve_test.sock";
  serve::Server server(opt);
  server.start();
  serve::Client client = serve::Client::connect_unix_socket(opt.unix_path);
  ASSERT_TRUE(is_ok(client.call(Opcode::LoadNet, net_payload(51, "ux"))));
  const Frame r = client.call(Opcode::Optimize, "net ux\n");
  EXPECT_TRUE(is_ok(r)) << r.payload;
  server.stop();
}

// Every file of the rpc_* corpus: inject the raw bytes, assert the server
// answers with nothing but typed Error frames (a header fault additionally
// costs the connection), and — the point — keeps serving fresh sessions.
TEST(ServeEndToEnd, CorruptFrameCorpusNeverKillsTheServer) {
  std::vector<std::string> corpus;
  {
    DIR* dir = opendir(NBUF_CORRUPT_DIR);
    ASSERT_NE(dir, nullptr) << NBUF_CORRUPT_DIR;
    while (dirent* e = readdir(dir)) {
      const std::string name = e->d_name;
      if (name.rfind("rpc_", 0) == 0)
        corpus.push_back(std::string(NBUF_CORRUPT_DIR) + "/" + name);
    }
    closedir(dir);
  }
  ASSERT_GE(corpus.size(), 7u);

  serve::Server server;
  server.start();
  for (const std::string& path : corpus) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream bytes;
    bytes << in.rdbuf();

    serve::Client client =
        serve::Client::connect("127.0.0.1", server.port());
    client.send_raw(bytes.str());
    // Half-close so the server sees EOF once it has consumed the garbage
    // (may fail with ENOTCONN when the server already reset us — fine).
    (void)::shutdown(client.fd(), SHUT_WR);
    Frame resp;
    bool clean_eof = false;
    std::size_t frames = 0;
    while (serve::read_frame(client.fd(), resp, clean_eof) ==
           HeaderError::None) {
      EXPECT_EQ(resp.op, Opcode::Error) << path << ": " << resp.payload;
      EXPECT_EQ(resp.payload.rfind("error ", 0), 0u) << resp.payload;
      ++frames;
    }
    EXPECT_LE(frames, 2u) << path;

    // The server survives: a fresh session still round-trips.
    serve::Client probe =
        serve::Client::connect("127.0.0.1", server.port());
    const Frame st = probe.call(Opcode::Stats, "");
    EXPECT_TRUE(is_ok(st)) << path << " wedged the server: " << st.payload;
  }
  server.stop();
}

TEST(ServeEndToEnd, RequestFaultKeepsTheConnectionAlive) {
  serve::Server server;
  server.start();
  serve::Client client = serve::Client::connect("127.0.0.1", server.port());
  const Frame bad = client.call(Opcode::Optimize, "net ghost\n");
  EXPECT_EQ(bad.op, Opcode::Error);
  // Same connection, next request succeeds.
  const Frame st = client.call(Opcode::Stats, "");
  ASSERT_TRUE(is_ok(st)) << st.payload;
  EXPECT_EQ(field_of(st.payload, "errors"), "1");
  server.stop();
}

// The determinism contract, interleaving half: N concurrent client threads
// each run their own script; every byte each client sees must equal a
// serial replay of the same script. Runs under TSan in CI.
TEST(ServeEndToEnd, ConcurrentSessionsMatchSerialReplay) {
  constexpr std::size_t kClients = 6;
  std::vector<std::vector<std::pair<Opcode, std::string>>> scripts;
  for (std::size_t i = 0; i < kClients; ++i) {
    const std::string name = "cc" + std::to_string(i);
    scripts.push_back({
        {Opcode::LoadNet, net_payload(60 + i, name)},
        {Opcode::Optimize, "net " + name + "\n"},
        {Opcode::Perturb,
         "net " + name + "\nscale_wire 3 1.4 1.2 0.9\n"},
        {Opcode::Perturb, "net " + name + "\nset_sink 0 25 1600 0.72\n"},
        {Opcode::Stats, ""},
    });
  }
  auto flatten = [](const std::vector<Frame>& frames) {
    std::string all;
    for (const Frame& f : frames) all += serve::encode_frame(f);
    return all;
  };

  serve::ServerOptions opt;
  opt.threads = 4;
  serve::Server server(opt);
  server.start();

  // Serial replay first...
  std::vector<std::string> expected(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    serve::Client c = serve::Client::connect("127.0.0.1", server.port());
    expected[i] = flatten(c.pipeline(scripts[i]));
    ASSERT_FALSE(expected[i].empty());
  }
  // ...then all clients at once against the same server.
  std::vector<std::string> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i)
    clients.emplace_back([&, i] {
      serve::Client c = serve::Client::connect("127.0.0.1", server.port());
      got[i] = flatten(c.pipeline(scripts[i]));
    });
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 0; i < kClients; ++i)
    EXPECT_EQ(got[i], expected[i]) << "client " << i;
  server.stop();
}

// The determinism contract, worker-pool half: the same pipelined burst
// against a 1-thread and an 8-thread server must produce bit-identical
// response byte streams.
TEST(ServeEndToEnd, ResponsesBitIdenticalAtOneVsEightWorkers) {
  std::vector<std::pair<Opcode, std::string>> script;
  for (std::size_t i = 0; i < 8; ++i)
    script.emplace_back(Opcode::LoadNet,
                        net_payload(70 + i, "w" + std::to_string(i)));
  for (std::size_t i = 0; i < 8; ++i)
    script.emplace_back(Opcode::Optimize,
                        "net w" + std::to_string(i) + "\n");
  for (std::size_t i = 0; i < 8; ++i)
    script.emplace_back(
        Opcode::Perturb,
        "net w" + std::to_string(i) + "\nscale_wire 2 1.7 1.4 0.8\n");
  script.emplace_back(Opcode::Stats, "");

  std::vector<std::string> streams;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    serve::ServerOptions opt;
    opt.threads = threads;
    serve::Server server(opt);
    server.start();
    serve::Client client =
        serve::Client::connect("127.0.0.1", server.port());
    std::string all;
    for (const Frame& f : client.pipeline(script))
      all += serve::encode_frame(f);
    streams.push_back(std::move(all));
    server.stop();
  }
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams[0], streams[1])
      << "worker-thread count leaked into response bytes";
}

}  // namespace
