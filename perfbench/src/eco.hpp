// The serve ECO stream: seeded PERTURB/SIGNOFF requests on loaded nets,
// plus the helpers the timed serve_eco run and every traced run share to
// drive nbuf's service over a socket (serve::Client) or in-process
// (serve::Session).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "batch/batch.hpp"
#include "core/incremental.hpp"
#include "lib/buffer.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "util/rng.hpp"

namespace perfbench::eco {

// One PERTURB edit line. Numbers are kept as the doubles the line renders
// exactly (%.17g), so a replay on a core::IncrementalContext applies the
// very values the session parsed.
struct Edit {
  enum class Kind { ScaleWire, SetSink, SplitWire, TightenMargins, ScaleCoupling };
  Kind kind = Kind::ScaleWire;
  std::uint32_t index = 0;  // node (wire edits) or sink (SetSink)
  double a = 0.0, b = 0.0, c = 0.0;

  [[nodiscard]] std::string line() const;
};

// Applies `e` through the IncrementalContext entry points, with the unit
// conversions serve::Session uses for the same line.
void apply(nbuf::core::IncrementalContext& ctx, const Edit& e);

enum class Kind : std::uint8_t {
  Local,    // interactive local PERTURB (subtree cache pays)
  Global,   // interactive global PERTURB (invalidates the net's cache)
  Signoff,  // interactive SIGNOFF
  Burst,    // PERTURB inside a pipelined what-if burst
  Reload,   // end of an ECO epoch: LOAD_NET + OPTIMIZE every net again
};

struct Request {
  std::uint32_t net = 0;
  Kind kind = Kind::Local;
  Edit edit;  // unused for Signoff

  [[nodiscard]] nbuf::serve::Opcode opcode() const {
    return kind == Kind::Signoff ? nbuf::serve::Opcode::Signoff
                                 : nbuf::serve::Opcode::Perturb;
  }
};

// The nets a session serves, as LOAD_NET payloads plus the trees LOAD_NET
// builds from them (binarized and segmented), which fix the node and sink
// indices the edits use.
struct NetSet {
  std::vector<std::string> names;
  std::vector<std::string> payloads;
  std::vector<nbuf::rct::RoutingTree> loaded;
};
[[nodiscard]] NetSet make_net_set(const std::vector<nbuf::batch::BatchNet>& nets,
                                  double segment_um,
                                  const nbuf::lib::BufferLibrary& lib);

// The request's frame payload: "net <name>" plus its edit line.
[[nodiscard]] std::string payload(const NetSet& nets, const Request& r);

// The ECO request stream: a deterministic function of the seed and the net
// set. Interactive draws are ~85% local edits (scale_wire / set_sink /
// split_wire), ~10% global edits, each followed later by its inverse
// (tighten_margins -d after +d, scale_coupling 1/f after f), and ~5%
// SIGNOFF. Local edits pick a random net; global edits and SIGNOFFs cycle
// through the nets, so every run spreads its costliest requests evenly
// over the tree sizes. Bursts are local edits on distinct nets. Each net
// gets at most
// kMaxSplits split_wire edits per epoch, so the trees stop growing early.
//
// Every kEpoch interactive draws the stream ends the epoch with a Reload:
// the caller reloads and re-optimizes every net (untimed) and the edits
// start over from the loaded trees. A net's core::IncrementalContext keeps
// every plan cell it ever allocated, so without epochs a session's memory
// would grow with every request and a faster build, answering more
// requests per run, would show a larger peak RSS.
class Stream {
 public:
  Stream(const NetSet& nets, std::uint64_t seed);
  // The next closed-loop request, or a Reload at the end of an epoch.
  [[nodiscard]] Request next_interactive();
  [[nodiscard]] std::vector<Request> next_burst(std::size_t size);

  static constexpr int kMaxSplits = 4;
  static constexpr std::size_t kEpoch = 48;

 private:
  [[nodiscard]] Edit local_edit(std::uint32_t net);

  const NetSet& nets_;
  std::size_t draws_ = 0;
  std::size_t globals_ = 0;
  std::size_t signoffs_ = 0;
  std::vector<nbuf::rct::RoutingTree> mirror_;  // tracks structure only
  std::vector<int> splits_;
  nbuf::util::Rng rng_;
  bool have_inverse_ = false;
  Request inverse_;
};

// The OPTIMIZE every net gets after LOAD_NET: BuffOpt's Problem-3
// objective (the session default) with at most kMaxBuffers buffers, the
// interactive sizing of bench/figL.
inline constexpr std::size_t kMaxBuffers = 8;
[[nodiscard]] std::string optimize_payload(const std::string& name);

// The VgOptions that OPTIMIZE payload resolves to.
[[nodiscard]] nbuf::core::VgOptions session_options();

// The solution block without its DP-effort trailer, which legitimately
// differs between an incremental PERTURB and its cold twin.
[[nodiscard]] std::string solution_of(const std::string& payload);

// LOAD_NET + OPTIMIZE for one net / every net; throws std::runtime_error
// on an Error frame.
void load_one(nbuf::serve::Session& session, const NetSet& nets,
              std::size_t net);
void load_all(nbuf::serve::Client& client, const NetSet& nets);
void load_all(nbuf::serve::Session& session, const NetSet& nets);

// Frame helper for in-process handling.
[[nodiscard]] nbuf::serve::Frame frame(nbuf::serve::Opcode op,
                                       std::string payload,
                                       std::uint64_t id = 1);

}  // namespace perfbench::eco
