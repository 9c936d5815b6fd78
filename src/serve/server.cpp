#include "serve/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "util/thread_annotations.hpp"

namespace nbuf::serve {

// Most frames coalesced into one Session::handle_batch dispatch.
constexpr std::size_t kMaxBatch = 64;

struct Server::Impl {
  explicit Impl(ServerOptions o) : opt(std::move(o)) {}

  ServerOptions opt;
  Fd listener;
  std::uint16_t bound_port = 0;
  obs::MetricsRegistry registry;

  std::thread accept_thread;
  util::Mutex mu;       // guards conn_threads + live_fds
  util::Mutex join_mu;  // serializes wait()/stop() joins
  std::vector<std::thread> conn_threads NBUF_GUARDED_BY(mu);
  std::vector<int> live_fds NBUF_GUARDED_BY(mu);
  std::atomic<bool> stopping{false};

  void track_fd(int fd) NBUF_EXCLUDES(mu) {
    const util::MutexLock lock(mu);
    live_fds.push_back(fd);
  }

  void untrack_fd(int fd) NBUF_EXCLUDES(mu) {
    const util::MutexLock lock(mu);
    for (auto it = live_fds.begin(); it != live_fds.end(); ++it)
      if (*it == fd) {
        live_fds.erase(it);
        break;
      }
  }

  // Half-closes every live connection so blocked reads return. Split out
  // so the analyzer can check the lock discipline: the caller holds `mu`.
  void shutdown_live_fds() NBUF_REQUIRES(mu) {
    for (const int fd : live_fds) (void)::shutdown(fd, SHUT_RDWR);
  }

  // Initiates shutdown without joining (safe from connection threads):
  // unblocks the accept thread and half-closes every live connection so
  // blocked reads return. The listener fd itself stays open until Impl is
  // destroyed — close(2) does not wake a thread blocked in accept(2), and
  // closing an fd another thread is using invites reuse races.
  void request_stop() NBUF_EXCLUDES(mu) {
    if (stopping.exchange(true)) return;
    (void)::shutdown(listener.get(), SHUT_RDWR);
    // shutdown() on a listening socket is not guaranteed to wake a blocked
    // accept() on every socket family; a throwaway self-connection is.
    try {
      if (!opt.unix_path.empty())
        (void)connect_unix(opt.unix_path);
      else if (bound_port != 0)
        (void)connect_tcp("127.0.0.1", bound_port);
    } catch (const std::exception&) {
      // Listener already unreachable — accept() has returned or will.
    }
    const util::MutexLock lock(mu);
    shutdown_live_fds();
  }

  void connection_loop(Fd fd) {
    Session session(SessionOptions{opt.threads, opt.segment_um});
    registry.counter("serve.sessions").increment();
    obs::Counter& c_requests = registry.counter("serve.requests");
    obs::Counter& c_responses = registry.counter("serve.responses");
    obs::Counter& c_errors = registry.counter("serve.errors");
    obs::Counter& c_bytes_in = registry.counter("serve.bytes_in");
    obs::Counter& c_bytes_out = registry.counter("serve.bytes_out");
    obs::Histogram& h_batch = registry.histogram("serve.batch_size");

    for (;;) {
      std::vector<Frame> batch;
      bool framing_lost = false;
      // Block for the first frame, then drain whatever the client already
      // pipelined — the coalescing window handle_batch parallelizes over.
      do {
        Frame f;
        bool clean_eof = false;
        const HeaderError err = read_frame(fd.get(), f, clean_eof);
        if (err == HeaderError::Truncated) {
          framing_lost = true;
          if (!clean_eof && !stopping.load()) {
            Frame resp;
            resp.op = Opcode::Error;
            resp.payload = error_payload(HeaderError::Truncated);
            (void)write_frame(fd.get(), resp);
            c_errors.increment();
          }
          break;
        }
        if (err != HeaderError::None) {
          // Framing is lost: reply the typed fault and close.
          Frame resp;
          resp.op = Opcode::Error;
          resp.request_id = f.request_id;
          resp.payload = error_payload(err);
          (void)write_frame(fd.get(), resp);
          c_errors.increment();
          framing_lost = true;
          break;
        }
        c_bytes_in.add(kHeaderSize + f.payload.size());
        batch.push_back(std::move(f));
      } while (batch.size() < kMaxBatch && readable_now(fd.get()));

      if (!batch.empty()) {
        h_batch.observe(batch.size());
        c_requests.add(batch.size());
        const std::vector<Frame> responses = session.handle_batch(batch);
        bool peer_gone = false;
        for (const Frame& r : responses) {
          if (r.op == Opcode::Error) c_errors.increment();
          c_bytes_out.add(kHeaderSize + r.payload.size());
          c_responses.increment();
          if (!write_frame(fd.get(), r)) {
            peer_gone = true;
            break;
          }
        }
        if (session.shutdown_requested()) {
          request_stop();
          break;
        }
        if (peer_gone) break;
      }
      if (framing_lost || stopping.load()) break;
    }
    untrack_fd(fd.get());
  }

  void accept_loop() {
    for (;;) {
      Fd conn = accept_connection(listener.get());
      if (!conn.valid()) break;  // listener closed by request_stop()
      if (stopping.load()) break;
      track_fd(conn.get());
      const util::MutexLock lock(mu);
      conn_threads.emplace_back(
          [this, c = std::move(conn)]() mutable {
            connection_loop(std::move(c));
          });
    }
  }
};

Server::Server(ServerOptions opt)
    : impl_(std::make_unique<Impl>(std::move(opt))) {}

Server::~Server() { stop(); }

void Server::start() {
  if (!impl_->opt.unix_path.empty()) {
    impl_->listener = listen_unix(impl_->opt.unix_path);
  } else {
    auto [fd, port] = listen_tcp(impl_->opt.port);
    impl_->listener = std::move(fd);
    impl_->bound_port = port;
  }
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
}

std::uint16_t Server::port() const noexcept { return impl_->bound_port; }

void Server::wait() {
  const util::MutexLock join_lock(impl_->join_mu);
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  // Joining the accept thread means no new connections; drain the rest.
  std::vector<std::thread> threads;
  {
    const util::MutexLock lock(impl_->mu);
    threads.swap(impl_->conn_threads);
  }
  for (std::thread& t : threads) t.join();
}

void Server::stop() {
  impl_->request_stop();
  wait();
}

obs::MetricsRegistry& Server::metrics() noexcept { return impl_->registry; }

}  // namespace nbuf::serve
