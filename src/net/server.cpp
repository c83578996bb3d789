#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/failpoint.h"
#include "support/thread_pool.h"

namespace irgnn::net {
namespace {

// epoll user-data tokens for the two non-connection fds; connection slots
// are small indices and can never collide with these.
constexpr std::uint64_t kListenToken = ~std::uint64_t{0};
constexpr std::uint64_t kWakeToken = ~std::uint64_t{0} - 1;

constexpr std::size_t kReadChunk = 16 * 1024;

/// Compact the inbound buffer once the parse cursor passes this, so a
/// long-lived pipelining connection cannot grow `in` without bound.
constexpr std::size_t kCompactThreshold = 64 * 1024;

}  // namespace

NetServer::NetServer(serve::Router& router, const NetServerConfig& config)
    : router_(router), config_(config) {
  limits_.max_feature =
      config_.max_feature >= 0
          ? config_.max_feature
          : static_cast<std::int32_t>(graph::vocabulary_size()) - 1;
}

NetServer::~NetServer() {
  shutdown();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

Status NetServer::start() {
  if (started_) return Status::Internal("NetServer already started");
  auto& pool = support::ThreadPool::global();
  if (pool.num_workers() == 0)
    return Status::Internal(
        "NetServer needs thread-pool workers: on a worker-less pool the "
        "event loop would run inline in start() and never return");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bind host must be an IPv4 dotted quad");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, config_.backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind/listen failed (port in use?)");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0)
    bound_port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = -1;
    if (wake_fd_ >= 0) ::close(wake_fd_);
    wake_fd_ = -1;
    return Status::Internal("epoll/eventfd creation failed");
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenToken;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeToken;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  started_ = true;
  loop_future_ = pool.submit([this] { run_loop(); });
  return Status::Ok();
}

void NetServer::request_drain() {
  drain_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void NetServer::wait() {
  std::lock_guard<std::mutex> guard(wait_mutex_);
  if (loop_future_.valid()) loop_future_.get();
}

void NetServer::shutdown() {
  if (!started_) return;
  request_drain();
  wait();
}

void NetServer::run_loop() {
  epoll_event events[64];
  bool draining = false;
  for (;;) {
    int n = ::epoll_wait(epoll_fd_, events, 64, config_.poll_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself is broken; teardown below closes everything
    }
    if (!draining && drain_requested_.load(std::memory_order_acquire)) {
      draining = true;
      begin_drain();
    }
    for (int i = 0; i < n; ++i) {
      std::uint64_t token = events[i].data.u64;
      if (token == kWakeToken) {
        std::uint64_t buf;
        while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
        }
      } else if (token == kListenToken) {
        if (!draining) do_accept();
      } else {
        handle_io(static_cast<std::uint32_t>(token), events[i].events);
      }
    }
    splice_and_flush();
    if (draining) {
      std::lock_guard<std::mutex> guard(mutex_);
      if (open_slots_ == 0) break;
    }
  }

  // Teardown. On the graceful path every slot is already free; on the
  // error path (epoll failure) connections may remain — close them and wait
  // out any unresolved continuations so `this` is never destroyed under one.
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (std::uint32_t slot = 0; slot < static_cast<std::uint32_t>(conns_.size());
       ++slot) {
    if (conns_[slot]->open) close_conn(slot);
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    drained_cv_.wait(lock, [this] { return total_pending_ == 0; });
  }
  finished_.store(true, std::memory_order_release);
}

void NetServer::begin_drain() {
  draining_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (std::uint32_t slot = 0; slot < static_cast<std::uint32_t>(conns_.size());
       ++slot) {
    Connection& conn = *conns_[slot];
    if (!conn.open) continue;
    // Stop reading; bytes not yet admitted are dropped (clients see EOF for
    // those — drain answers only what was admitted).
    conn.in.clear();
    conn.in_ofs = 0;
    conn.flow_blocked = true;
    update_epoll(slot);
    maybe_close_drained(slot);
  }
}

void NetServer::do_accept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      std::lock_guard<std::mutex> guard(mutex_);
      ++accept_failures_;
      return;
    }
    bool injected = false;
    IRGNN_FAILPOINT("net.accept", injected = true);
    if (injected) {
      ::close(fd);
      std::lock_guard<std::mutex> guard(mutex_);
      ++accept_failures_;
      continue;
    }
    {
      std::lock_guard<std::mutex> guard(mutex_);
      if (open_slots_ >= config_.max_connections) {
        ++rejected_connections_;
        ::close(fd);
        continue;
      }
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::uint32_t slot = alloc_slot();
    Connection& conn = *conns_[slot];
    conn.fd = fd;
    conn.want_write = false;
    conn.flow_blocked = false;
    conn.in.clear();
    conn.in_ofs = 0;
    conn.wbuf.clear();
    conn.wbuf_ofs = 0;

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = slot;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      conn.fd = -1;
      std::lock_guard<std::mutex> guard(mutex_);
      conn.open = false;
      ++accept_failures_;
      free_slot_locked(slot);
      continue;
    }
    std::lock_guard<std::mutex> guard(mutex_);
    conn.open = true;
    ++accepted_;
  }
}

void NetServer::handle_io(std::uint32_t slot, std::uint32_t events) {
  if (slot >= conns_.size()) return;
  Connection& conn = *conns_[slot];
  if (!conn.open) return;  // stale event for an already-closed fd
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(slot);
    return;
  }
  if (events & EPOLLOUT) flush_conn(slot);
  if (!conn.open) return;
  if ((events & EPOLLIN) && !conn.flow_blocked) read_conn(slot);
}

void NetServer::read_conn(std::uint32_t slot) {
  Connection& conn = *conns_[slot];
  std::uint8_t buf[kReadChunk];
  for (;;) {
    bool fault = false;
    IRGNN_FAILPOINT("net.read", fault = true);
    if (fault) {
      {
        std::lock_guard<std::mutex> guard(mutex_);
        ++read_faults_;
      }
      close_conn(slot);
      return;
    }
    ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n == 0) {  // orderly EOF
      close_conn(slot);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      {
        std::lock_guard<std::mutex> guard(mutex_);
        ++read_faults_;
      }
      close_conn(slot);
      return;
    }
    conn.in.insert(conn.in.end(), buf, buf + n);
    if (static_cast<std::size_t>(n) < sizeof(buf)) break;  // socket drained
  }
  parse_frames(slot);
}

void NetServer::parse_frames(std::uint32_t slot) {
  Connection& conn = *conns_[slot];
  while (conn.open) {
    std::size_t avail = conn.in.size() - conn.in_ofs;
    if (avail < kHeaderBytes) break;
    FrameHeader header;
    Status status =
        decode_header(conn.in.data() + conn.in_ofs, kHeaderBytes, &header);
    if (!status.ok()) {
      // Framing is lost; the stream cannot be resynchronized.
      {
        std::lock_guard<std::mutex> guard(mutex_);
        ++protocol_errors_;
      }
      close_conn(slot);
      return;
    }
    std::size_t frame_bytes = kHeaderBytes + header.payload_bytes;
    if (avail < frame_bytes) break;  // wait for the rest of the frame
    handle_frame(slot, header, conn.in.data() + conn.in_ofs + kHeaderBytes);
    if (!conn.open) return;
    conn.in_ofs += frame_bytes;
  }
  if (!conn.open) return;
  if (conn.in_ofs == conn.in.size()) {
    conn.in.clear();
    conn.in_ofs = 0;
  } else if (conn.in_ofs >= kCompactThreshold) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(conn.in_ofs));
    conn.in_ofs = 0;
  }
}

void NetServer::handle_frame(std::uint32_t slot, const FrameHeader& header,
                             const std::uint8_t* payload) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    ++frames_in_;
  }
  switch (header.type) {
    case FrameType::kRequest:
      handle_request(slot, payload, header.payload_bytes);
      return;
    case FrameType::kStatsRequest:
      handle_stats_request(slot);
      return;
    default:
      // kGraph/kResponse/kStatsReply are not things a client sends a server.
      {
        std::lock_guard<std::mutex> guard(mutex_);
        ++protocol_errors_;
      }
      close_conn(slot);
      return;
  }
}

void NetServer::handle_request(std::uint32_t slot, const std::uint8_t* payload,
                               std::size_t size) {
  Connection& conn = *conns_[slot];

  // TCP backpressure: a client not reading its answers fills the write
  // buffer, and its new requests are shed unadmitted (header comment).
  if (outstanding_bytes(conn) > config_.max_write_buffer) {
    std::uint64_t tag = 0;
    peek_request_tag(payload, size, &tag);
    {
      std::lock_guard<std::mutex> guard(mutex_);
      ++backpressure_shed_;
    }
    respond_error(slot, tag,
                  Status::Overloaded("connection write buffer full"),
                  serve::Source::Shed);
    return;
  }

  InflightQuery* query = acquire_query();
  DecodedRequest decoded;
  Status status = decode_request(payload, size, &decoded, &query->graph,
                                 limits_);
  bool fault = false;
  IRGNN_FAILPOINT("net.decode", fault = true);
  if (fault) status = Status::InvalidArgument("injected decode fault");
  if (!status.ok()) {
    std::uint64_t tag = 0;
    bool have_tag = peek_request_tag(payload, size, &tag);
    {
      std::lock_guard<std::mutex> guard(mutex_);
      ++decode_errors_;
      release_query_locked(query);
    }
    if (have_tag) {
      // The frame was well-delimited, just malformed inside: answer the
      // query and keep the connection.
      respond_error(slot, tag, status, serve::Source::Shed);
    } else {
      std::lock_guard<std::mutex> guard(mutex_);
      ++protocol_errors_;
      // close outside the lock
    }
    if (!have_tag) close_conn(slot);
    return;
  }

  serve::Request request;
  request.graph = &query->graph;
  request.model = decoded.model;  // views conn.in; submit does not retain it
  request.deadline_us = decoded.deadline_us;
  request.priority = decoded.priority;

  std::uint64_t gen;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    ++requests_;
    gen = conn.gen;
    ++conn.pending;
    ++total_pending_;
  }

  auto submitted = router_.submit(request);
  if (!submitted.ok()) {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      --conn.pending;
      --total_pending_;
      release_query_locked(query);
    }
    respond_error(slot, decoded.tag, submitted.status(), serve::Source::Shed);
    return;
  }
  NetServer* self = this;
  std::uint64_t tag = decoded.tag;
  submitted.value().then(
      [self, slot, gen, tag, query](const serve::Response& response) {
        self->complete(slot, gen, tag, query, response);
      });
}

void NetServer::handle_stats_request(std::uint32_t slot) {
  WireStats wire = gather_wire_stats(router_, stats());
  std::lock_guard<std::mutex> guard(mutex_);
  Connection& conn = *conns_[slot];
  if (!conn.in_use || !conn.open) return;
  encode_stats_reply_into(wire, conn.outbox);
  ++frames_out_;
  if (!conn.dirty) {
    conn.dirty = true;
    dirty_.push_back(slot);
  }
}

void NetServer::respond_error(std::uint32_t slot, std::uint64_t tag,
                              const Status& status, serve::Source source) {
  serve::Response response;
  response.status = status;
  response.label = -1;
  response.source = source;
  std::lock_guard<std::mutex> guard(mutex_);
  Connection& conn = *conns_[slot];
  if (!conn.in_use || !conn.open) return;
  encode_response_into(tag, response, conn.outbox);
  ++frames_out_;
  ++responses_;
  if (!conn.dirty) {
    conn.dirty = true;
    dirty_.push_back(slot);
  }
}

void NetServer::complete(std::uint32_t slot, std::uint64_t gen,
                         std::uint64_t tag, InflightQuery* query,
                         const serve::Response& response) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    Connection& conn = *conns_[slot];
    // A slot with pending queries is never freed or reused, so a live
    // continuation always matches; the mismatch arm is pure defense.
    if (conn.in_use && conn.gen == gen) {
      --conn.pending;
      if (conn.open) {
        encode_response_into(tag, response, conn.outbox);
        ++frames_out_;
        ++responses_;
        if (!conn.dirty) {
          conn.dirty = true;
          dirty_.push_back(slot);
        }
      } else if (conn.pending == 0) {
        free_slot_locked(slot);  // zombie: client left mid-flight
      }
    }
    --total_pending_;
    release_query_locked(query);
    if (total_pending_ == 0) drained_cv_.notify_all();
  }
  wake();
}

void NetServer::splice_and_flush() {
  dirty_local_.clear();
  {
    std::lock_guard<std::mutex> guard(mutex_);
    dirty_local_.swap(dirty_);
    for (std::uint32_t slot : dirty_local_) conns_[slot]->dirty = false;
  }
  for (std::uint32_t slot : dirty_local_) flush_conn(slot);
}

void NetServer::flush_conn(std::uint32_t slot) {
  Connection& conn = *conns_[slot];
  if (!conn.open) return;
  for (;;) {
    if (conn.wbuf_ofs == conn.wbuf.size()) {
      conn.wbuf.clear();
      conn.wbuf_ofs = 0;
      std::lock_guard<std::mutex> guard(mutex_);
      if (!conn.outbox.empty())
        conn.wbuf.swap(conn.outbox);  // zero-copy, capacities recycle
    }
    if (conn.wbuf_ofs == conn.wbuf.size()) break;  // nothing left to send
    std::size_t len = conn.wbuf.size() - conn.wbuf_ofs;
    IRGNN_FAILPOINT("net.write", len = 1);  // injected short write
    ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.wbuf_ofs, len,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          conn.want_write = true;
          update_epoll(slot);
        }
        return;  // kernel buffer full; EPOLLOUT resumes us
      }
      if (errno == EINTR) continue;
      close_conn(slot);
      return;
    }
    conn.wbuf_ofs += static_cast<std::size_t>(n);
  }
  // Fully flushed.
  if (conn.want_write) {
    conn.want_write = false;
    update_epoll(slot);
  }
  maybe_close_drained(slot);
}

void NetServer::update_epoll(std::uint32_t slot) {
  Connection& conn = *conns_[slot];
  if (!conn.open) return;
  epoll_event ev{};
  ev.events = (conn.flow_blocked ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
              (conn.want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = slot;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void NetServer::close_conn(std::uint32_t slot) {
  Connection& conn = *conns_[slot];
  if (!conn.open) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conn.fd = -1;
  conn.want_write = false;
  conn.flow_blocked = false;
  conn.in.clear();
  conn.in_ofs = 0;
  conn.wbuf.clear();
  conn.wbuf_ofs = 0;
  std::lock_guard<std::mutex> guard(mutex_);
  conn.open = false;
  ++closed_;
  if (conn.pending == 0)
    free_slot_locked(slot);
  // else: zombie until the last continuation resolves (complete() frees it).
}

void NetServer::maybe_close_drained(std::uint32_t slot) {
  if (!draining_.load(std::memory_order_relaxed)) return;
  Connection& conn = *conns_[slot];
  if (!conn.open) return;
  if (conn.wbuf_ofs != conn.wbuf.size()) return;
  bool idle;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    idle = conn.outbox.empty() && conn.pending == 0;
  }
  if (idle) close_conn(slot);
}

std::uint32_t NetServer::alloc_slot() {
  std::lock_guard<std::mutex> guard(mutex_);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(conns_.size());
    conns_.push_back(std::make_unique<Connection>());
  }
  Connection& conn = *conns_[slot];
  conn.in_use = true;
  conn.dirty = false;
  conn.pending = 0;
  conn.outbox.clear();
  ++open_slots_;
  return slot;
}

void NetServer::free_slot_locked(std::uint32_t slot) {
  Connection& conn = *conns_[slot];
  conn.in_use = false;
  ++conn.gen;  // stale continuations (there should be none) discard
  conn.dirty = false;
  conn.outbox.clear();
  free_slots_.push_back(slot);
  --open_slots_;
}

NetServer::InflightQuery* NetServer::acquire_query() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!free_queries_.empty()) {
    InflightQuery* query = free_queries_.back();
    free_queries_.pop_back();
    return query;
  }
  query_store_.push_back(std::make_unique<InflightQuery>());
  return query_store_.back().get();
}

void NetServer::release_query_locked(InflightQuery* query) {
  free_queries_.push_back(query);
}

void NetServer::wake() {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

std::size_t NetServer::outstanding_bytes(const Connection& conn) {
  std::lock_guard<std::mutex> guard(mutex_);
  return (conn.wbuf.size() - conn.wbuf_ofs) + conn.outbox.size();
}

NetServerStats NetServer::stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  NetServerStats s;
  s.accepted = accepted_;
  s.closed = closed_;
  s.rejected_connections = rejected_connections_;
  s.accept_failures = accept_failures_;
  s.frames_in = frames_in_;
  s.frames_out = frames_out_;
  s.requests = requests_;
  s.responses = responses_;
  s.decode_errors = decode_errors_;
  s.protocol_errors = protocol_errors_;
  s.backpressure_shed = backpressure_shed_;
  s.read_faults = read_faults_;
  s.open_slots = open_slots_;
  s.draining = draining_.load(std::memory_order_acquire);
  s.finished = finished_.load(std::memory_order_acquire);
  return s;
}

WireStats gather_wire_stats(const serve::Router& router,
                            const NetServerStats& net) {
  serve::RouterStats rs = router.stats();
  WireStats w;
  w.queries = rs.queries;
  w.forwards = rs.forwards;
  w.batches = rs.batches;
  w.cache_hits = rs.cache_hits;
  w.cache_misses = rs.cache_misses;
  w.coalesced = rs.coalesced;
  w.shed = rs.shed;
  w.rejected = rs.rejected;
  w.deadline_exceeded = rs.deadline_exceeded;
  w.internal_errors = rs.internal_errors;
  w.invalid_arguments = rs.invalid_arguments;
  w.routed = rs.routed;
  w.model_not_found = rs.model_not_found;
  w.net_accepted = net.accepted;
  w.net_closed = net.closed;
  w.net_open = net.open_slots;
  w.net_frames_in = net.frames_in;
  w.net_frames_out = net.frames_out;
  w.net_requests = net.requests;
  w.net_decode_errors = net.decode_errors;
  w.net_protocol_errors = net.protocol_errors;
  w.net_backpressure_shed = net.backpressure_shed;
  w.net_accept_failures = net.accept_failures;
  return w;
}

}  // namespace irgnn::net
