// nbuf_serve daemon core: accepts connections, frames requests, and drives
// one Session per connection (docs/serving.md).
//
// Threading model: one accept thread plus one thread per live connection.
// Connection threads block reading one frame, then drain every complete
// frame the client already pipelined (request coalescing) and hand the
// batch to Session::handle_batch, which fans independent compute requests
// across a batch::parallel_for_index worker pool. Responses are written
// back in request order, so a client sees exactly the serial semantics.
//
// Server-wide observability lands in a MetricsRegistry under "serve.*"
// (request/error/byte counters — commutative, so deterministic for any
// schedule; batch-size histogram). Session-local STATS counters are the
// deterministic per-client view.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/session.hpp"

namespace nbuf::obs {
class MetricsRegistry;
}

namespace nbuf::serve {

struct ServerOptions {
  // TCP listen port on 127.0.0.1 (0 = ephemeral, read back via port()).
  // Ignored when unix_path is set.
  std::uint16_t port = 0;
  // When non-empty, listen on this Unix-domain socket path instead of TCP.
  std::string unix_path;
  // Per-session worker threads for coalesced compute batches.
  std::size_t threads = 1;
  // LOAD_NET segmenting granularity (µm) unless the request overrides it.
  double segment_um = 500.0;
};

class Server {
 public:
  explicit Server(ServerOptions opt = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds and starts the accept thread. Throws on bind/listen failure.
  void start();

  // The bound TCP port (valid after start(); 0 in Unix-socket mode).
  [[nodiscard]] std::uint16_t port() const noexcept;

  // Blocks until the server stops: a SHUTDOWN request or stop().
  void wait();

  // Stops accepting, unblocks every connection, joins all threads.
  // Idempotent; called by the destructor.
  void stop();

  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nbuf::serve
