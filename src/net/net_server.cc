#include "net/net_server.h"

#include <errno.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace pkgm::net {
namespace {

constexpr int kPollWaitMs = 100;

using Clock = std::chrono::steady_clock;

/// Encodes the response frame matching a request frame's reply type. The
/// lookup path answers kVectors; the inference kinds answer their typed
/// replies (score entries for recommend/align, top-k lists for classify).
std::string EncodeReplyFrame(FrameType reply_type, uint64_t correlation_id,
                             const std::vector<serve::ServiceResponse>& slots) {
  switch (reply_type) {
    case FrameType::kRecommendReply:
    case FrameType::kAlignReply:
      return EncodeScoreReply(reply_type, correlation_id, slots);
    case FrameType::kClassifyReply:
      return EncodeClassifyReply(correlation_id, slots);
    default:
      return EncodeVectors(correlation_id, slots);
  }
}

}  // namespace

/// One TCP connection, owned exclusively by its I/O thread.
struct NetServer::Connection {
  uint64_t id = 0;
  ScopedFd fd;
  FrameDecoder decoder;
  /// Encoded-but-unsent response bytes, oldest first. front() may be
  /// partially written (outbox_offset).
  std::deque<std::string> outbox;
  size_t outbox_offset = 0;
  size_t outbox_bytes = 0;
  /// Request frames submitted to the knowledge server whose response has
  /// not yet been appended to the outbox.
  uint64_t in_flight_frames = 0;
  Clock::time_point last_activity;
  /// An async (kAsync) send is in flight with the backend; its bytes stay
  /// in the outbox until OnSendComplete retires them, so send_inflight
  /// implies a non-empty outbox and the drain condition is unchanged.
  bool send_inflight = false;
  bool reading = true;

  explicit Connection(size_t max_frame_bytes) : decoder(max_frame_bytes) {}
};

/// Per-thread event loop state. `conns` and `backend` are touched only by
/// the owning thread; `inbox_fds`/`completions` are the cross-thread
/// mailboxes.
struct NetServer::IoThread {
  size_t index = 0;
  ScopedFd event_fd;
  std::thread thread;

  std::mutex mu;
  std::vector<int> inbox_fds;
  struct Completion {
    uint64_t conn_id;
    std::string bytes;
  };
  std::vector<Completion> completions;

  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
  std::unique_ptr<LoopHandler> loop_handler;
  /// Declared last: destroyed first, while the handler, connections and
  /// eventfd it references are still alive.
  std::unique_ptr<IoBackend> backend;
};

/// Adapts backend callbacks onto the server's loop methods for one thread.
struct NetServer::LoopHandler : public IoEventHandler {
  NetServer* server = nullptr;
  IoThread* io = nullptr;

  void OnAcceptReady() override {
    if (!server->draining_.load(std::memory_order_acquire)) {
      server->AcceptNew(*io);
    }
  }
  void OnWakeup() override { server->DrainMailboxes(*io); }
  void OnData(uint64_t tag, const char* data, size_t len) override {
    server->OnConnData(*io, tag, data, len);
  }
  void OnPeerClosed(uint64_t tag) override {
    server->CloseConnection(*io, tag);
  }
  void OnSendComplete(uint64_t tag, int64_t n) override {
    server->OnSendComplete(*io, tag, n);
  }
  void OnSendSpace(uint64_t tag) override {
    auto it = io->conns.find(tag);
    if (it == io->conns.end()) return;
    server->FlushOutbox(*io, *it->second);
  }
};

/// Completion state shared by the per-request callbacks of one request
/// frame: the worker finishing the frame's last request encodes the
/// response and posts it to the connection's I/O thread.
struct NetServer::FrameState {
  NetServer* server;
  size_t thread_index;
  uint64_t conn_id;
  uint64_t correlation_id;
  /// Which response frame type answers this request frame.
  FrameType reply_type;
  std::vector<serve::ServiceResponse> slots;
  std::atomic<size_t> remaining;
};

/// One routed frame's completion token: enforces respond-at-most-once and
/// carries the addressing a worker thread needs to post the response back.
struct NetServer::HandlerRespondState {
  NetServer* server;
  size_t thread_index;
  uint64_t conn_id;
  std::atomic<bool> responded{false};

  // A respond dropped without ever being invoked still completes its
  // frame: the peer simply gets no reply (it sees the close or times
  // out). Without this, a handler that abandons a parked respond would
  // wedge Stop()'s outstanding-frame wait forever.
  ~HandlerRespondState() {
    if (!responded.load(std::memory_order_acquire)) {
      --server->outstanding_frames_;
    }
  }
};

NetServer::NetServer(serve::KnowledgeServer* server, NetServerOptions options)
    : server_(server), handler_(nullptr), options_(std::move(options)) {
  PKGM_CHECK(server != nullptr);
  PKGM_CHECK(options_.num_io_threads >= 1);
}

NetServer::NetServer(FrameHandler* handler, NetServerOptions options)
    : server_(nullptr), handler_(handler), options_(std::move(options)) {
  PKGM_CHECK(handler != nullptr);
  PKGM_CHECK(options_.num_io_threads >= 1);
}

NetServer::~NetServer() { Stop(); }

Status NetServer::BuildIoThreads(IoBackendKind kind) {
  for (size_t i = 0; i < options_.num_io_threads; ++i) {
    auto io = std::make_unique<IoThread>();
    io->index = i;
    io->event_fd.Reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    if (!io->event_fd.valid()) {
      return Status::IoError(StrFormat("eventfd: %s", std::strerror(errno)));
    }
    io->loop_handler = std::make_unique<LoopHandler>();
    io->loop_handler->server = this;
    io->loop_handler->io = io.get();
    io->backend = CreateIoBackend(kind);
    Status status =
        io->backend->Init(io->loop_handler.get(), io->event_fd.get());
    if (!status.ok()) return status;
    if (i == 0) {
      status = io->backend->AttachListener(listener_.get());
      if (!status.ok()) return status;
    }
    io_threads_.push_back(std::move(io));
  }
  return Status::Ok();
}

Status NetServer::Start() {
  PKGM_CHECK(!started_) << "NetServer::Start called twice";
  auto listener =
      ListenTcp(options_.bind_address, options_.port, options_.listen_backlog,
                options_.reuseport, &port_);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener.value());

  IoBackendKind kind = SelectIoBackend(options_.io_backend);
  Status built = BuildIoThreads(kind);
  if (!built.ok() && kind == IoBackendKind::kUring) {
    // The probe passed but a real ring did not come up (e.g. a memlock
    // limit hit with full-size rings). All threads must agree on a
    // backend, so rebuild everything on epoll.
    PKGM_LOG(Warning) << "io_uring backend init failed ("
                      << built.ToString() << "); falling back to epoll";
    io_threads_.clear();
    kind = IoBackendKind::kEpoll;
    built = BuildIoThreads(kind);
  }
  if (!built.ok()) return built;
  io_backend_name_ = IoBackendKindName(kind);

  for (size_t i = 0; i < io_threads_.size(); ++i) {
    io_threads_[i]->thread = std::thread([this, i] { IoLoop(i); });
  }
  started_ = true;
  return Status::Ok();
}

void NetServer::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  draining_.store(true, std::memory_order_release);
  for (auto& io : io_threads_) SignalThread(*io);
  for (auto& io : io_threads_) {
    if (io->thread.joinable()) io->thread.join();
  }
  // No worker callback may outlive the server object: wait for every
  // submitted frame's completion to be posted (the knowledge server keeps
  // draining; its Stop() is the caller's, ordered after this).
  while (outstanding_frames_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  listener_.Reset();
}

void NetServer::SignalThread(IoThread& io) {
  const uint64_t one = 1;
  // The eventfd outlives the threads (owned by this object), so a wakeup
  // racing shutdown lands harmlessly in its counter.
  [[maybe_unused]] ssize_t n =
      ::write(io.event_fd.get(), &one, sizeof(one));
}

void NetServer::PostCompletion(size_t thread_index, uint64_t conn_id,
                               std::string bytes) {
  IoThread& io = *io_threads_[thread_index];
  bool was_empty;
  {
    std::lock_guard<std::mutex> lock(io.mu);
    was_empty = io.completions.empty() && io.inbox_fds.empty();
    io.completions.push_back({conn_id, std::move(bytes)});
  }
  // Signal only the empty -> non-empty transition: a signal already in
  // flight guarantees a drain that will pick this item up too, and skipping
  // the redundant write spares the loop one wakeup round per burst.
  if (was_empty) SignalThread(io);
}

void NetServer::AddConnection(IoThread& io, int raw_fd) {
  ScopedFd fd(raw_fd);
  if (!SetNonBlocking(fd.get()).ok() || !SetTcpNoDelay(fd.get()).ok()) {
    return;  // peer already gone; nothing accepted yet to roll back
  }
  if (options_.so_sndbuf_bytes > 0) {
    SetSendBufferBytes(fd.get(), options_.so_sndbuf_bytes);
  }
  auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
  conn->id = next_conn_id_.fetch_add(1);
  conn->fd = std::move(fd);
  conn->last_activity = Clock::now();
  // A connection accepted mid-drain is immediately read-disabled; it will
  // be closed by the drain sweep.
  conn->reading = !draining_.load(std::memory_order_acquire);

  if (!io.backend->AddConnection(conn->id, conn->fd.get(), conn->reading)
           .ok()) {
    return;
  }
  ++connections_accepted_;
  io.conns.emplace(conn->id, std::move(conn));
}

void NetServer::AcceptNew(IoThread& io) {
  while (true) {
    const int fd = ::accept4(listener_.get(), nullptr, nullptr,
                             SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient accept error: try later
    const size_t target = next_io_thread_.fetch_add(1) % io_threads_.size();
    if (target == io.index) {
      AddConnection(io, fd);
    } else {
      IoThread& other = *io_threads_[target];
      bool was_empty;
      {
        std::lock_guard<std::mutex> lock(other.mu);
        was_empty = other.completions.empty() && other.inbox_fds.empty();
        other.inbox_fds.push_back(fd);
      }
      if (was_empty) SignalThread(other);
    }
  }
}

void NetServer::CloseConnection(IoThread& io, uint64_t conn_id) {
  auto it = io.conns.find(conn_id);
  if (it == io.conns.end()) return;
  // RemoveConnection runs while the fd is still open (the backend must
  // flush/cancel kernel ops that reference it); the erase then closes it.
  io.backend->RemoveConnection(conn_id);
  io.conns.erase(it);  // ScopedFd closes the socket
  ++connections_closed_;
}

void NetServer::RetireOutboxBytes(Connection& conn, size_t n) {
  if (n == 0) return;
  bytes_out_ += static_cast<uint64_t>(n);
  conn.outbox_bytes -= n;
  conn.last_activity = Clock::now();
  // Retire fully-sent frames; a partial tail becomes the new front with
  // its offset advanced.
  while (n > 0) {
    const size_t front_remaining =
        conn.outbox.front().size() - conn.outbox_offset;
    if (n >= front_remaining) {
      n -= front_remaining;
      conn.outbox.pop_front();
      conn.outbox_offset = 0;
    } else {
      conn.outbox_offset += n;
      n = 0;
    }
  }
}

bool NetServer::FlushOutbox(IoThread& io, Connection& conn) {
  // One async send at a time per connection: its bytes stay queued until
  // OnSendComplete retires them and resumes the flush.
  if (conn.send_inflight) return true;
  // Gather up to kFlushIovecs queued frames per submission: under
  // pipelined load the outbox routinely holds many small response frames,
  // and one gathered send drains what used to take one send() each.
  constexpr int kFlushIovecs = 64;
  while (!conn.outbox.empty()) {
    struct iovec iov[kFlushIovecs];
    int iovcnt = 0;
    for (const std::string& entry : conn.outbox) {
      if (iovcnt == kFlushIovecs) break;
      const size_t offset = iovcnt == 0 ? conn.outbox_offset : 0;
      iov[iovcnt].iov_base =
          const_cast<char*>(entry.data()) + offset;
      iov[iovcnt].iov_len = entry.size() - offset;
      ++iovcnt;
    }
    const SendResult result =
        io.backend->SubmitSend(conn.id, conn.fd.get(), iov, iovcnt);
    switch (result.kind) {
      case SendResult::Kind::kSent:
        RetireOutboxBytes(conn, result.bytes);
        continue;
      case SendResult::Kind::kWouldBlock:
        return true;  // backend calls OnSendSpace when a retry can progress
      case SendResult::Kind::kAsync:
        conn.send_inflight = true;
        return true;  // OnSendComplete retires and resumes
      case SendResult::Kind::kError:
        CloseConnection(io, conn.id);  // EPIPE/ECONNRESET/...
        return false;
    }
  }
  return true;
}

void NetServer::OnSendComplete(IoThread& io, uint64_t tag, int64_t n) {
  auto it = io.conns.find(tag);
  if (it == io.conns.end()) return;
  Connection& conn = *it->second;
  conn.send_inflight = false;
  if (n < 0) {
    CloseConnection(io, tag);
    return;
  }
  RetireOutboxBytes(conn, static_cast<size_t>(n));
  FlushOutbox(io, conn);
}

bool NetServer::SendOnLoop(IoThread& io, Connection& conn,
                           std::string bytes) {
  ++frames_out_;
  conn.outbox_bytes += bytes.size();
  conn.outbox.push_back(std::move(bytes));
  if (!FlushOutbox(io, conn)) return false;
  if (conn.outbox_bytes > options_.max_outbox_bytes) {
    // Slow reader: the kernel buffer and our bound are both full. Cutting
    // the connection sheds the memory instead of queueing without limit.
    ++backpressure_disconnects_;
    CloseConnection(io, conn.id);
    return false;
  }
  return true;
}

bool NetServer::HandleFrame(IoThread& io, Connection& conn, Frame frame) {
  ++frames_in_;
  switch (frame.type) {
    case FrameType::kPing:
      return SendOnLoop(io, conn,
                        EncodeControl(FrameType::kPong, frame.correlation_id));
    case FrameType::kStats:
      return SendOnLoop(io, conn,
                        EncodeStatsJson(frame.correlation_id, StatsJson()));
    case FrameType::kGetVectors:
    case FrameType::kRecommend:
    case FrameType::kClassify:
    case FrameType::kAlign: {
      if (server_ == nullptr) {
        return SendOnLoop(io, conn,
                          EncodeError(frame.correlation_id,
                                      WireCode::kUnsupported,
                                      "no knowledge server attached"));
      }
      // All four request kinds share one lifecycle: decode, submit the
      // batch to the knowledge server, encode the matching typed reply
      // when the last request of the frame completes.
      std::vector<serve::ServiceRequest> requests;
      const auto now = serve::ServeClock::now();
      Status status;
      FrameType reply_type;
      switch (frame.type) {
        case FrameType::kRecommend:
          status = DecodeRecommend(frame.payload, now, &requests);
          reply_type = FrameType::kRecommendReply;
          break;
        case FrameType::kClassify:
          status = DecodeClassify(frame.payload, now, &requests);
          reply_type = FrameType::kClassifyReply;
          break;
        case FrameType::kAlign:
          status = DecodeAlign(frame.payload, now, &requests);
          reply_type = FrameType::kAlignReply;
          break;
        default:
          status = DecodeGetVectors(frame.payload, now, &requests);
          reply_type = FrameType::kVectors;
          break;
      }
      if (!status.ok()) {
        ++protocol_errors_;
        CloseConnection(io, conn.id);
        return false;
      }
      requests_in_ += requests.size();
      if (requests.empty()) {
        return SendOnLoop(
            io, conn, EncodeReplyFrame(reply_type, frame.correlation_id, {}));
      }
      auto state = std::make_shared<FrameState>();
      state->server = this;
      state->thread_index = io.index;
      state->conn_id = conn.id;
      state->correlation_id = frame.correlation_id;
      state->reply_type = reply_type;
      state->slots.resize(requests.size());
      state->remaining.store(requests.size(), std::memory_order_relaxed);
      ++conn.in_flight_frames;
      ++outstanding_frames_;
      server_->SubmitBatchAsync(
          std::move(requests),
          [state](size_t index, serve::ServiceResponse response) {
            state->slots[index] = std::move(response);
            if (state->remaining.fetch_sub(1) == 1) {
              NetServer* server = state->server;
              std::string encoded = EncodeReplyFrame(
                  state->reply_type, state->correlation_id, state->slots);
              server->PostCompletion(state->thread_index, state->conn_id,
                                     std::move(encoded));
              // Last touch of the NetServer: once this hits zero, Stop()
              // may return and the object may die.
              --server->outstanding_frames_;
            }
          });
      return true;
    }
    case FrameType::kPullRows:
    case FrameType::kPushGrads:
    case FrameType::kShardInfo:
    case FrameType::kBarrier:
      return RouteToHandler(io, conn, std::move(frame));
    case FrameType::kVectors:
    case FrameType::kStatsJson:
    case FrameType::kPong:
    case FrameType::kRows:
    case FrameType::kPushAck:
    case FrameType::kShardInfoReply:
    case FrameType::kBarrierReply:
    case FrameType::kRecommendReply:
    case FrameType::kClassifyReply:
    case FrameType::kAlignReply:
      // Response frames arriving at the server: confused peer, but the
      // stream is intact — answer with an error and keep the connection.
      return SendOnLoop(io, conn,
                        EncodeError(frame.correlation_id,
                                    WireCode::kUnsupported,
                                    "response frame sent to server"));
    case FrameType::kError:
      return true;  // ignore
  }
  // Unknown type byte: header + CRC were valid, so the stream is in sync;
  // reply kError for forward compatibility and keep the connection.
  return SendOnLoop(io, conn,
                    EncodeError(frame.correlation_id, WireCode::kUnsupported,
                                "unknown frame type"));
}

bool NetServer::RouteToHandler(IoThread& io, Connection& conn, Frame frame) {
  if (handler_ == nullptr) {
    return SendOnLoop(io, conn,
                      EncodeError(frame.correlation_id, WireCode::kUnsupported,
                                  "no frame handler attached"));
  }
  // Same accounting as kGetVectors: the frame is outstanding until its
  // response is posted, and Stop() waits for zero — which is exactly the
  // drain guarantee a pushed gradient batch needs.
  ++conn.in_flight_frames;
  ++outstanding_frames_;
  auto state = std::make_shared<HandlerRespondState>();
  state->server = this;
  state->thread_index = io.index;
  state->conn_id = conn.id;
  FrameHandler::Respond respond = [state](std::string bytes) {
    bool expected = false;
    if (!state->responded.compare_exchange_strong(expected, true)) return;
    NetServer* server = state->server;
    server->PostCompletion(state->thread_index, state->conn_id,
                           std::move(bytes));
    // Last touch of the NetServer (see the kGetVectors completion).
    --server->outstanding_frames_;
  };
  if (handler_->HandleFrame(frame, std::move(respond))) return true;
  // Refused: the handler did not take the respond obligation.
  --conn.in_flight_frames;
  --outstanding_frames_;
  return SendOnLoop(io, conn,
                    EncodeError(frame.correlation_id, WireCode::kUnsupported,
                                "frame refused by handler"));
}

void NetServer::OnConnData(IoThread& io, uint64_t tag, const char* data,
                           size_t len) {
  auto it = io.conns.find(tag);
  if (it == io.conns.end()) return;
  Connection& conn = *it->second;
  // Bytes that race the drain cutoff are dropped: the peer's new requests
  // are not accepted mid-drain (same as the pre-seam read-disable).
  if (!conn.reading) return;
  bytes_in_ += static_cast<uint64_t>(len);
  conn.last_activity = Clock::now();
  conn.decoder.Feed(data, len);
  Frame frame;
  std::string error;
  while (true) {
    const FrameDecoder::Result result = conn.decoder.Next(&frame, &error);
    if (result == FrameDecoder::Result::kNeedMore) return;
    if (result == FrameDecoder::Result::kError) {
      // Malformed frame: the stream is unrecoverable, close exactly this
      // connection. Everyone else is unaffected.
      ++protocol_errors_;
      CloseConnection(io, conn.id);
      return;
    }
    if (!HandleFrame(io, conn, std::move(frame))) return;
  }
}

void NetServer::DrainMailboxes(IoThread& io) {
  std::vector<int> fds;
  std::vector<IoThread::Completion> completions;
  {
    std::lock_guard<std::mutex> lock(io.mu);
    fds.swap(io.inbox_fds);
    completions.swap(io.completions);
  }
  for (int fd : fds) AddConnection(io, fd);
  for (auto& completion : completions) {
    auto it = io.conns.find(completion.conn_id);
    if (it == io.conns.end()) continue;  // connection died first
    Connection& conn = *it->second;
    PKGM_CHECK(conn.in_flight_frames > 0);
    --conn.in_flight_frames;
    SendOnLoop(io, conn, std::move(completion.bytes));
  }
}

void NetServer::IoLoop(size_t thread_index) {
  IoThread& io = *io_threads_[thread_index];
  bool drain_seen = false;
  Clock::time_point drain_deadline{};
  Clock::time_point last_idle_scan = Clock::now();

  while (true) {
    // One backend iteration: wait for events (epoll_wait, or one
    // submit-and-wait io_uring_enter) and dispatch them through the
    // LoopHandler callbacks.
    io.backend->Poll(kPollWaitMs);
    const bool draining = draining_.load(std::memory_order_acquire);

    if (draining && !drain_seen) {
      drain_seen = true;
      drain_deadline =
          Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
      if (thread_index == 0 && listener_.valid()) {
        io.backend->DetachListener();
        // The fd itself is closed by Stop() after every thread has joined.
        ::shutdown(listener_.get(), SHUT_RDWR);
      }
      for (auto& [id, conn] : io.conns) {
        if (conn->reading) {
          conn->reading = false;
          io.backend->PauseRecv(id);
        }
      }
    }

    const Clock::time_point now = Clock::now();
    const auto idle_scan_interval = std::chrono::milliseconds(
        std::min(1000, std::max(50, options_.idle_timeout_ms / 2)));
    if (!draining && options_.idle_timeout_ms > 0 &&
        now - last_idle_scan > idle_scan_interval) {
      last_idle_scan = now;
      const auto timeout = std::chrono::milliseconds(options_.idle_timeout_ms);
      std::vector<uint64_t> idle;
      for (const auto& [id, conn] : io.conns) {
        if (conn->in_flight_frames == 0 && conn->outbox.empty() &&
            now - conn->last_activity > timeout) {
          idle.push_back(id);
        }
      }
      for (uint64_t id : idle) {
        ++idle_disconnects_;
        CloseConnection(io, id);
      }
    }

    if (drain_seen) {
      const bool expired = now > drain_deadline;
      std::vector<uint64_t> closable;
      for (const auto& [id, conn] : io.conns) {
        if (expired ||
            (conn->in_flight_frames == 0 && conn->outbox.empty())) {
          closable.push_back(id);
        }
      }
      for (uint64_t id : closable) CloseConnection(io, id);
      if (io.conns.empty()) return;
    }
  }
}

serve::NetCounters NetServer::net_counters() const {
  serve::NetCounters net;
  net.connections_accepted = connections_accepted_.load();
  net.connections_closed = connections_closed_.load();
  net.connections_active =
      net.connections_accepted - net.connections_closed;
  net.frames_in = frames_in_.load();
  net.frames_out = frames_out_.load();
  net.bytes_in = bytes_in_.load();
  net.bytes_out = bytes_out_.load();
  net.requests_in = requests_in_.load();
  net.protocol_errors = protocol_errors_.load();
  net.backpressure_disconnects = backpressure_disconnects_.load();
  net.idle_disconnects = idle_disconnects_.load();
  net.io_backend = io_backend_name_;
  for (const auto& io : io_threads_) {
    if (io->backend == nullptr) continue;
    const IoBackendStats s = io->backend->stats();
    net.io_wait_calls += s.wait_calls;
    net.io_recv_syscalls += s.recv_syscalls;
    net.io_send_syscalls += s.send_syscalls;
    net.io_recv_submissions += s.recv_submissions;
    net.io_send_submissions += s.send_submissions;
    net.io_wakeups += s.wakeups;
    net.io_coalesce_timeouts += s.coalesce_timeouts;
  }
  return net;
}

std::string NetServer::StatsReport() const {
  if (server_ == nullptr) return StatsJson();
  serve::CacheStats cache_stats;
  const serve::CacheStats* cache_ptr = nullptr;
  if (server_->cache() != nullptr) {
    cache_stats = server_->cache()->Stats();
    cache_ptr = &cache_stats;
  }
  const serve::NetCounters net = net_counters();
  return server_->stats().ToTable(server_->queue_depth(), cache_ptr, &net);
}

std::string NetServer::StatsJson() const {
  if (server_ == nullptr) {
    // Transport-only server: splice the net counters into the handler's
    // own JSON object so one snapshot carries both.
    const serve::NetCounters net = net_counters();
    std::string inner = handler_->StatsJson();
    // Strip the handler object's braces; tolerate an empty "{}" snapshot.
    std::string fields;
    const size_t open = inner.find('{');
    const size_t close = inner.rfind('}');
    if (open != std::string::npos && close != std::string::npos &&
        close > open + 1) {
      fields = inner.substr(open + 1, close - open - 1);
    }
    std::string json = "{\"net\": " + net.Json();
    if (!fields.empty()) {
      json += ", ";
      json += fields;
    }
    json += "}";
    return json;
  }
  serve::CacheStats cache_stats;
  const serve::CacheStats* cache_ptr = nullptr;
  if (server_->cache() != nullptr) {
    cache_stats = server_->cache()->Stats();
    cache_ptr = &cache_stats;
  }
  const serve::NetCounters net = net_counters();
  return server_->stats().StatsJson(server_->queue_depth(), cache_ptr, &net);
}

}  // namespace pkgm::net
