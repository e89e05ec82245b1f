#include "ipc/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>

#include "ipc/protocol.hpp"
#include "util/bytes.hpp"

namespace fanstore::ipc {

namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Prepends the [u32 len] frame header to a (small) reply payload.
Bytes frame_reply(const Bytes& payload) {
  Bytes out;
  out.reserve(4 + payload.size());
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

posixfs::ServeOp serve_op(Op op) {
  switch (op) {
    case Op::kGet: return posixfs::ServeOp::kReadAll;
    case Op::kStat: return posixfs::ServeOp::kStat;
    case Op::kList: return posixfs::ServeOp::kList;
  }
  return posixfs::ServeOp::kStat;  // unreachable: decode_request checks op
}

// Waits for a closure deferred onto `loop` to finish (start/stop plumbing;
// never on the request path).
void run_on_loop_sync(EventLoop& loop, std::function<void()> fn) {
  struct SyncPoint {
    sync::Mutex mu{"ipc.server.syncpoint_mu"};
    sync::AnnotatedCondVar cv;
    bool done GUARDED_BY(mu) = false;
  };
  auto sp = std::make_shared<SyncPoint>();
  loop.defer([sp, fn = std::move(fn)] {
    fn();
    sync::MutexLock lk(sp->mu);
    sp->done = true;
    sp->cv.notify_all();
  });
  sync::MutexLock lk(sp->mu);
  sp->cv.wait(sp->mu, [&]() REQUIRES(sp->mu) { return sp->done; });
}

}  // namespace

// One queued reply: `head` (the frame header, or all of a small frame),
// then `body`, a view of bytes that `pin` keeps alive. A hit's body is the
// pinned cache entry itself, so the file is never copied into the reply;
// the pin drops when the frame leaves the queue (sent, or the connection
// closed).
struct Server::OutFrame {
  Bytes head;
  ByteView body;
  std::shared_ptr<const void> pin;

  std::size_t size() const { return head.size() + body.size(); }
};

// Per-connection state. Owned by its shard's loop thread: every field is
// read and written only from that thread (blocker jobs carry copies and
// hand results back through EventLoop::defer), so no lock is needed.
struct Server::Conn {
  int fd = -1;
  Shard* shard = nullptr;

  Bytes inbuf;                  // unparsed inbound bytes
  std::deque<Bytes> requests;   // complete frames awaiting service
  bool inflight = false;        // one request in the blocker pool

  std::deque<OutFrame> outq;    // framed replies awaiting write
  std::size_t out_off = 0;      // progress into outq.front()
  std::size_t out_bytes = 0;    // total queued reply bytes

  std::uint32_t interest = 0;   // current epoll mask
  bool paused = false;          // reading paused (backpressure)
  bool closing = false;         // close once outq drains (protocol error)
  bool peer_eof = false;        // client half-closed; finish then close
  bool dead = false;            // fd closed, no further transitions
  std::uint64_t last_active_us = 0;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

// One event-loop shard: a slice of the connections plus their epoll.
struct Server::Shard {
  explicit Shard(obs::MetricsRegistry* metrics) : loop(metrics) {}
  EventLoop loop;
  // Loop-thread-only (same ownership rule as Conn).
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
};

Server::Server(std::vector<Endpoint> listen_on, posixfs::Vfs& fs,
               ServerOptions options)
    : fs_(fs), options_(options), requested_(std::move(listen_on)) {
  if (options_.metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    options_.metrics = owned_metrics_.get();
  }
  obs::MetricsRegistry& m = *options_.metrics;
  accepted_ = &m.counter("ipc.accepted");
  requests_ = &m.counter("ipc.requests");
  protocol_errors_ = &m.counter("ipc.protocol_errors");
  bytes_in_ = &m.counter("ipc.bytes_in");
  bytes_out_ = &m.counter("ipc.bytes_out");
  idle_timeouts_ = &m.counter("ipc.idle_timeouts");
  backpressure_pauses_ = &m.counter("ipc.backpressure_pauses");
  conns_open_ = &m.gauge("ipc.conns_open");
  loop_served_ = &m.counter("ipc.loop_served");
  serve_us_ = &m.histogram("ipc.serve_us");
}

Server::~Server() { stop(); }

void Server::start() {
  sync::MutexLock lk(lifecycle_mu_);
  if (running_.exchange(true)) return;
  std::size_t nshards = options_.shards;
  if (nshards == 0) {
    nshards = std::thread::hardware_concurrency();
    if (nshards == 0) nshards = 1;
  }
  std::size_t nblockers = options_.blocker_threads;
  if (nblockers == 0) {
    nblockers = std::thread::hardware_concurrency();
    if (nblockers < 2) nblockers = 2;
  }
  try {
    blocker_ = std::make_unique<BlockerPool>(nblockers, options_.metrics);
    for (std::size_t i = 0; i < nshards; ++i) {
      shards_.push_back(std::make_unique<Shard>(options_.metrics));
    }
    // Listeners all live on shard 0's epoll; accepted fds are dealt
    // round-robin to every shard. Registration happens before the loop
    // threads exist, so touching the loop's fd registry here is safe.
    bound_.clear();
    for (const Endpoint& ep : requested_) {
      Endpoint actual;
      const int fd =
          Transport::for_kind(ep.kind).listen(ep, options_.backlog, &actual);
      const std::size_t idx = listen_fds_.size();
      listen_fds_.push_back(fd);
      bound_.push_back(actual);
      shards_[0]->loop.add_fd(fd, EPOLLIN,
                              [this, idx](std::uint32_t) { accept_ready(idx); });
    }
    if (options_.idle_timeout_ms > 0) {
      const int tick = std::max(1, options_.idle_timeout_ms / 4);
      for (auto& shard : shards_) {
        Shard* s = shard.get();
        shard->loop.set_tick(tick, [this, s] { sweep_idle(s); });
      }
    }
    for (auto& shard : shards_) {
      Shard* s = shard.get();
      shard_threads_.emplace_back([s] { s->loop.run(); });
    }
  } catch (...) {
    for (int fd : listen_fds_) ::close(fd);
    listen_fds_.clear();
    for (auto& shard : shards_) shard->loop.stop();
    for (auto& t : shard_threads_) t.join();
    shard_threads_.clear();
    shards_.clear();
    blocker_.reset();
    running_.exchange(false);
    throw;
  }
}

void Server::stop() {
  sync::MutexLock lk(lifecycle_mu_);
  if (!running_.exchange(false)) return;
  // 1. Stop accepting: unregister + close every listener on shard 0.
  run_on_loop_sync(shards_[0]->loop, [this] {
    for (int fd : listen_fds_) {
      shards_[0]->loop.del_fd(fd);
      ::close(fd);
    }
  });
  listen_fds_.clear();
  // 2. Drain the blocker pool so in-flight requests finish and their
  // replies reach the loops (which are still running and can flush them).
  blocker_->drain();
  // 3. Close every connection and stop the loops. close-all is deferred
  // so it runs on the owning thread; EventLoop::run() drains deferred
  // work once more after the stop flag, so both closures execute.
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    shard->loop.defer([this, s] {
      std::vector<std::shared_ptr<Conn>> all;
      all.reserve(s->conns.size());
      for (auto& [fd, conn] : s->conns) all.push_back(conn);
      for (auto& conn : all) close_conn(conn);
    });
    shard->loop.stop();
  }
  for (auto& t : shard_threads_) t.join();
  shard_threads_.clear();
  // 4. Late jobs (requests that slipped in between drain and loop stop)
  // finish inside the pool dtor; their deferred completions are simply
  // dropped with the loops — the connections are already closed.
  blocker_.reset();
  shards_.clear();
  for (const Endpoint& ep : bound_) Transport::for_kind(ep.kind).cleanup(ep);
}

void Server::accept_ready(std::size_t listener_idx) {
  const int listen_fd = listen_fds_[listener_idx];
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // EINTR and ECONNABORTED are per-connection hiccups, not listener
      // failures: keep accepting. EMFILE/ENFILE back off to the next
      // event; everything else means the listener is gone.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    accepted_->inc();
    const int one = 1;
    // No-op (ENOTSUP/ENOPROTOOPT) on UDS connections.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Shard* target =
        shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) %
                shards_.size()]
            .get();
    target->loop.defer([this, target, fd] { register_conn(target, fd); });
  }
}

void Server::register_conn(Shard* shard, int fd) {
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->shard = shard;
  conn->last_active_us = now_us();
  conn->interest = EPOLLIN | EPOLLRDHUP;
  shard->conns[fd] = conn;
  conns_open_->add(1);
  shard->loop.add_fd(fd, conn->interest, [this, conn](std::uint32_t events) {
    conn_ready(conn, events);
  });
}

void Server::conn_ready(const std::shared_ptr<Conn>& conn,
                        std::uint32_t events) {
  if (conn->dead) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(conn);
    return;
  }
  if (events & (EPOLLIN | EPOLLRDHUP)) {
    std::uint8_t buf[64 << 10];
    std::size_t round_bytes = 0;
    for (;;) {
      const ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (r > 0) {
        conn->inbuf.insert(conn->inbuf.end(), buf, buf + r);
        bytes_in_->inc(static_cast<std::uint64_t>(r));
        conn->last_active_us = now_us();
        round_bytes += static_cast<std::size_t>(r);
        // Fairness: cap per-round intake; level-triggered epoll re-reports.
        if (round_bytes >= (256u << 10)) break;
        continue;
      }
      if (r == 0) {
        conn->peer_eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn);
      return;
    }
    parse_frames(conn);
    if (conn->dead) return;
    pump_requests(conn);
  }
  if (events & EPOLLOUT) {
    flush_writes(conn);
    if (conn->dead) return;
  }
  update_interest(conn);
  if (conn->peer_eof && conn->outq.empty() && !conn->inflight &&
      conn->requests.empty()) {
    close_conn(conn);
  }
}

void Server::parse_frames(const std::shared_ptr<Conn>& conn) {
  std::size_t off = 0;
  while (!conn->closing) {
    if (conn->inbuf.size() - off < 4) break;
    const std::uint32_t len = load_le<std::uint32_t>(conn->inbuf.data() + off);
    if (len > options_.max_request_bytes) {
      // Oversized declared length: a clean error reply, then close — and
      // never allocate the claimed size.
      protocol_errors_->inc();
      OutFrame err{encode_get_reply_head(Status::kError, 0), {}, {}};
      conn->out_bytes += err.size();
      conn->outq.push_back(std::move(err));
      conn->closing = true;
      break;
    }
    if (conn->inbuf.size() - off - 4 < len) break;
    const auto* base = conn->inbuf.data() + off + 4;
    conn->requests.emplace_back(base, base + len);
    off += 4 + static_cast<std::size_t>(len);
  }
  if (off > 0) {
    conn->inbuf.erase(conn->inbuf.begin(),
                      conn->inbuf.begin() + static_cast<std::ptrdiff_t>(off));
  }
  // Too many parsed-but-unserved frames: stop reading until they drain.
  if (!conn->paused && conn->requests.size() > 128) {
    conn->paused = true;
    backpressure_pauses_->inc();
  }
  if (conn->closing) flush_writes(conn);
}

void Server::pump_requests(const std::shared_ptr<Conn>& conn) {
  while (!conn->dead && !conn->inflight && !conn->requests.empty()) {
    Bytes payload = std::move(conn->requests.front());
    conn->requests.pop_front();
    const std::uint64_t t0 = now_us();
    OutFrame reply;
    if (serve_frame(as_view(payload), /*on_loop=*/true, &reply)) {
      serve_us_->record(now_us() - t0);
      queue_reply(conn, std::move(reply));
      continue;
    }
    // Would block: one request goes to the blocker pool, the rest wait.
    conn->inflight = true;
    blocker_->submit([this, conn, payload = std::move(payload), t0]() mutable {
      // Blocker-pool side: only `payload`, the Vfs, and the (atomic)
      // counters are touched — never the connection state.
      OutFrame frame;
      serve_frame(as_view(payload), /*on_loop=*/false, &frame);
      conn->shard->loop.defer(
          [this, conn, frame = std::move(frame), t0]() mutable {
            on_reply(conn, std::move(frame), t0);
          });
    });
    return;
  }
}

bool Server::serve_frame(ByteView payload, bool on_loop, OutFrame* reply) {
  const auto request = decode_request(payload);
  if (!request) {
    protocol_errors_->inc();
    reply->head = encode_get_reply_head(Status::kError, 0);
    return true;
  }
  const posixfs::ServeOp op = serve_op(request->op);
  posixfs::ServeAnswer answer;
  if (!on_loop) {
    answer = posixfs::serve(fs_, op, request->path);
  } else if (!fs_.try_serve(op, request->path, &answer)) {
    return false;
  }
  const Status status = answer.rc == 0 ? Status::kOk : Status::kNotFound;
  switch (request->op) {
    case Op::kGet:
      // The head, then the file straight from the answer's pin.
      reply->head = encode_get_reply_head(status, answer.data.size());
      reply->body = answer.data;
      reply->pin = std::move(answer.pin);
      break;
    case Op::kStat:
      reply->head = frame_reply(encode_stat_reply(status, answer.stat));
      break;
    case Op::kList:
      reply->head = frame_reply(encode_list_reply(status, answer.entries));
      break;
  }
  requests_->inc();
  if (on_loop) loop_served_->inc();
  return true;
}

void Server::queue_reply(const std::shared_ptr<Conn>& conn, OutFrame frame) {
  conn->out_bytes += frame.size();
  conn->outq.push_back(std::move(frame));
  flush_writes(conn);
  if (conn->dead) return;
  if (!conn->paused && conn->out_bytes > options_.write_high_water) {
    conn->paused = true;
    backpressure_pauses_->inc();
  }
}

void Server::on_reply(const std::shared_ptr<Conn>& conn, OutFrame frame,
                      std::uint64_t t0_us) {
  if (conn->dead) return;
  conn->inflight = false;
  serve_us_->record(now_us() - t0_us);
  queue_reply(conn, std::move(frame));
  if (conn->dead) return;
  pump_requests(conn);
  update_interest(conn);
  if (conn->peer_eof && conn->outq.empty() && !conn->inflight &&
      conn->requests.empty()) {
    close_conn(conn);
  }
}

void Server::flush_writes(const std::shared_ptr<Conn>& conn) {
  while (!conn->outq.empty()) {
    const OutFrame& front = conn->outq.front();
    while (conn->out_off < front.size()) {
      // Gather write of what is left of the head and the body; sendmsg,
      // not writev, for MSG_NOSIGNAL.
      iovec iov[2];
      int n = 0;
      std::size_t body_off = 0;
      if (conn->out_off < front.head.size()) {
        iov[n++] = {const_cast<std::uint8_t*>(front.head.data()) + conn->out_off,
                    front.head.size() - conn->out_off};
      } else {
        body_off = conn->out_off - front.head.size();
      }
      if (body_off < front.body.size()) {
        iov[n++] = {const_cast<std::uint8_t*>(front.body.data()) + body_off,
                    front.body.size() - body_off};
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(n);
      const ssize_t w = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
      if (w > 0) {
        conn->out_off += static_cast<std::size_t>(w);
        conn->out_bytes -= static_cast<std::size_t>(w);
        bytes_out_->inc(static_cast<std::uint64_t>(w));
        conn->last_active_us = now_us();
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        update_interest(conn);
        return;
      }
      close_conn(conn);  // peer gone mid-reply
      return;
    }
    conn->outq.pop_front();
    conn->out_off = 0;
  }
  // Fully drained: lift backpressure once below half the high-water mark
  // and the parsed queue is back to a sane depth.
  if (conn->paused && conn->out_bytes < options_.write_high_water / 2 &&
      conn->requests.size() <= 64 && !conn->closing) {
    conn->paused = false;
  }
  if (conn->closing) {
    close_conn(conn);
    return;
  }
  update_interest(conn);
}

void Server::update_interest(const std::shared_ptr<Conn>& conn) {
  if (conn->dead) return;
  std::uint32_t want = EPOLLRDHUP;
  if (!conn->paused && !conn->closing && !conn->peer_eof) want |= EPOLLIN;
  if (!conn->outq.empty()) want |= EPOLLOUT;
  if (want != conn->interest) {
    conn->shard->loop.mod_fd(conn->fd, want);
    conn->interest = want;
  }
}

void Server::close_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->dead) return;
  conn->dead = true;
  conn->outq.clear();  // drops the queued replies' pins now
  conn->shard->loop.del_fd(conn->fd);
  conn->shard->conns.erase(conn->fd);
  ::close(conn->fd);
  conn->fd = -1;
  conns_open_->add(-1);
}

void Server::sweep_idle(Shard* shard) {
  if (options_.idle_timeout_ms <= 0) return;
  const std::uint64_t cutoff_us = 1000ull * options_.idle_timeout_ms;
  const std::uint64_t now = now_us();
  std::vector<std::shared_ptr<Conn>> idle;
  for (auto& [fd, conn] : shard->conns) {
    if (conn->inflight || !conn->outq.empty() || !conn->requests.empty()) {
      continue;  // busy connections are never idle, however slow the work
    }
    if (now - conn->last_active_us >= cutoff_us) idle.push_back(conn);
  }
  for (auto& conn : idle) {
    idle_timeouts_->inc();
    close_conn(conn);
  }
}

}  // namespace fanstore::ipc
