// Per-connection session state of the optimization service.
//
// A Session owns everything one client connection accumulates: the active
// buffer library (the paper's 11-type default until LOAD_LIB replaces it),
// a map of loaded nets, and — the point of the service — one
// core::IncrementalContext per optimized net, so a PERTURB request
// re-optimizes only the dirty spine of the edit instead of re-running the
// whole DP (docs/serving.md).
//
// Sessions share nothing with each other, so interleaved sessions cannot
// perturb each other's responses, and STATS reports session-local counters
// only — both halves of the determinism contract.
//
// Request coalescing: when a client pipelines several frames, the server
// hands the whole batch to handle_batch(), which fans maximal runs of
// consecutive compute requests (OPTIMIZE / PERTURB / SIGNOFF) on DISTINCT
// nets across batch::parallel_for_index workers. Each handler touches only
// its own net's entry and writes its response into its request's slot, and
// session counters are folded serially in request order afterward — so the
// response byte stream is identical at any worker-thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "lib/buffer.hpp"
#include "lib/technology.hpp"
#include "serve/protocol.hpp"

namespace nbuf::serve {

struct SessionOptions {
  std::size_t threads = 1;    // workers for coalesced compute batches
  double segment_um = 500.0;  // LOAD_NET wire-segmenting granularity
};

class Session {
 public:
  explicit Session(SessionOptions opt = {});
  ~Session();
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;

  // Handles one request frame and returns its response frame (success
  // payload or a typed Error). Never throws for request-level faults.
  [[nodiscard]] Frame handle(const Frame& request);

  // Handles a pipelined batch: responses come back in request order, with
  // runs of consecutive compute requests on distinct nets fanned out over
  // the worker pool. Equivalent to calling handle() in order.
  [[nodiscard]] std::vector<Frame> handle_batch(
      const std::vector<Frame>& requests);

  // True once a SHUTDOWN request was handled.
  [[nodiscard]] bool shutdown_requested() const noexcept;

  // Session-local request counters (the STATS payload renders these).
  struct Counters {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t nets_loaded = 0;
    std::uint64_t libs_loaded = 0;
    std::uint64_t optimizes = 0;
    std::uint64_t perturbs = 0;
    std::uint64_t signoffs = 0;
    std::uint64_t subtrees_reused = 0;
    std::uint64_t subtrees_recomputed = 0;

    Counters& operator+=(const Counters& o) noexcept {
      requests += o.requests;
      errors += o.errors;
      nets_loaded += o.nets_loaded;
      libs_loaded += o.libs_loaded;
      optimizes += o.optimizes;
      perturbs += o.perturbs;
      signoffs += o.signoffs;
      subtrees_reused += o.subtrees_reused;
      subtrees_recomputed += o.subtrees_recomputed;
      return *this;
    }
  };
  [[nodiscard]] const Counters& counters() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nbuf::serve
