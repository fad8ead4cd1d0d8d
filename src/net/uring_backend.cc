// The io_uring completion backend: receives are armed as per-connection
// RECV SQEs into backend-owned 64K buffers, sends are copied into a
// per-connection bounce buffer and submitted as SENDMSG SQEs, the wakeup
// eventfd is a re-armed READ, and the listener is a re-armed one-shot
// POLL_ADD — so one io_uring_enter per loop iteration replaces
// epoll_wait + one read()/sendmsg() per ready connection.
//
// Lifetime rules the kernel imposes:
//  - An in-flight SQE's buffers must outlive the op. Send data is therefore
//    COPIED into the backend (never borrowed from the caller's outbox), and
//    a removed connection becomes a zombie until its canceled ops complete.
//  - A queued-but-unsubmitted SQE holds a raw fd number, so
//    RemoveConnection flushes the SQ before the caller may close the fd
//    (submitted ops hold a kernel file reference and are fd-reuse safe).
#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/io_backend.h"
#include "net/uring.h"
#include "util/logging.h"

namespace pkgm::net {
namespace {

constexpr unsigned kRingEntries = 256;
constexpr size_t kRecvBufBytes = 64 * 1024;
/// Upper bound on bytes copied per SENDMSG submission: bounds the
/// double-buffer memory per connection; the caller re-flushes the rest on
/// completion.
constexpr size_t kMaxSendCopyBytes = 256 * 1024;
/// Completion-moderation window: the most one coalescing enter may add to
/// a round. Long enough to batch a dense burst (it keeps the uring loop
/// under half of epoll's syscalls per frame in bench_tail_latency), short
/// next to a 128 KiB loopback round trip (~0.5 ms) for the rounds whose
/// batch can never fill (request/response: the peer waits on our reply).
constexpr int64_t kCoalesceWindowUs = 200;

// user_data = (tag << 2) | op. Connection tags start at 2, so tags 0/1 are
// free for the backend's own ops.
constexpr uint64_t kOpRecv = 0;
constexpr uint64_t kOpSend = 1;
constexpr uint64_t kUdWake = (0u << 2) | 2u;
constexpr uint64_t kUdAccept = (0u << 2) | 3u;
constexpr uint64_t kUdCancel = (1u << 2) | 3u;

class UringBackend : public IoBackend {
 public:
  ~UringBackend() override { Shutdown(); }

  const char* name() const override { return "io_uring"; }

  Status Init(IoEventHandler* handler, int wakeup_fd) override {
    handler_ = handler;
    wakeup_fd_ = wakeup_fd;
    Status status = ring_.Init(kRingEntries);
    if (!status.ok()) return status;
    wake_buf_ = std::make_unique<uint64_t>(0);
    ArmWakeRead();
    return Status::Ok();
  }

  Status AttachListener(int fd) override {
    listener_fd_ = fd;
    ArmAcceptPoll();
    return Status::Ok();
  }

  void DetachListener() override {
    listener_fd_ = -1;
    if (accept_armed_) QueueCancel(kUdAccept);
  }

  Status AddConnection(uint64_t tag, int fd, bool want_recv) override {
    auto conn = std::make_unique<ConnIo>();
    conn->fd = fd;
    conn->recv_buf.resize(kRecvBufBytes);
    conn->recv_paused = !want_recv;
    ConnIo* raw = conn.get();
    conns_.emplace(tag, std::move(conn));
    if (want_recv) ArmRecv(tag, raw);
    return Status::Ok();
  }

  void PauseRecv(uint64_t tag) override {
    auto it = conns_.find(tag);
    if (it == conns_.end()) return;
    ConnIo& conn = *it->second;
    if (conn.recv_paused) return;
    conn.recv_paused = true;
    if (conn.recv_armed) QueueCancel((tag << 2) | kOpRecv);
  }

  void RemoveConnection(uint64_t tag) override {
    auto it = conns_.find(tag);
    if (it == conns_.end()) return;
    ConnIo& conn = *it->second;
    conn.recv_paused = true;
    conn.zombie = true;
    if (conn.recv_armed) QueueCancel((tag << 2) | kOpRecv);
    if (conn.send_inflight) QueueCancel((tag << 2) | kOpSend);
    // Flush the SQ while the fd is still open: once submitted, in-flight
    // ops hold a kernel file reference and survive (or cancel) safely even
    // if the caller closes the fd and the number is reused.
    ring_.Submit();
    SyncStats();
    if (!conn.recv_armed && !conn.send_inflight) {
      conns_.erase(it);  // nothing in flight: no zombie needed
    }
  }

  SendResult SubmitSend(uint64_t tag, int fd, const iovec* iov,
                        int iovcnt) override {
    auto it = conns_.find(tag);
    if (it == conns_.end()) return {SendResult::Kind::kError, 0};
    ConnIo& conn = *it->second;
    if (conn.send_inflight) return {SendResult::Kind::kWouldBlock, 0};
    io_uring_sqe* sqe = ring_.GetSqe();
    if (sqe == nullptr) {
      // Ring saturated even after a flush (CQ backed up). Retry from the
      // next Poll iteration, after the drain frees it.
      retry_send_space_.push_back(tag);
      return {SendResult::Kind::kWouldBlock, 0};
    }
    conn.send_buf.clear();
    for (int i = 0; i < iovcnt && conn.send_buf.size() < kMaxSendCopyBytes;
         ++i) {
      const size_t room = kMaxSendCopyBytes - conn.send_buf.size();
      const size_t take = iov[i].iov_len < room ? iov[i].iov_len : room;
      conn.send_buf.append(static_cast<const char*>(iov[i].iov_base), take);
    }
    conn.send_iov.iov_base = conn.send_buf.data();
    conn.send_iov.iov_len = conn.send_buf.size();
    std::memset(&conn.send_msg, 0, sizeof(conn.send_msg));
    conn.send_msg.msg_iov = &conn.send_iov;
    conn.send_msg.msg_iovlen = 1;
    PrepSendmsg(sqe, fd, &conn.send_msg, (tag << 2) | kOpSend);
    conn.send_inflight = true;
    send_submissions_.fetch_add(1, std::memory_order_relaxed);
    return {SendResult::Kind::kAsync, conn.send_buf.size()};
  }

  void Poll(int timeout_ms) override {
    // Re-arm anything that couldn't get an SQE last iteration.
    if (!retry_recv_arm_.empty()) {
      std::vector<uint64_t> retry;
      retry.swap(retry_recv_arm_);
      for (uint64_t tag : retry) {
        auto it = conns_.find(tag);
        if (it == conns_.end()) continue;
        ConnIo& conn = *it->second;
        if (!conn.zombie && !conn.recv_paused && !conn.recv_armed) {
          ArmRecv(tag, &conn);
        }
      }
    }
    if (!retry_send_space_.empty()) {
      std::vector<uint64_t> retry;
      retry.swap(retry_send_space_);
      for (uint64_t tag : retry) {
        if (conns_.find(tag) != conns_.end()) handler_->OnSendSpace(tag);
      }
    }
    // Free peek first: CQEs the kernel already published are visible in the
    // mmap'd CQ without a syscall, and the follow-up SQEs their dispatch
    // queues (recv re-arms, responses) are NOT flushed here — they ride the
    // next blocking enter. Deferral is self-limiting: unpublished ops
    // produce no completions, so a busy burst drains the CQ within a few
    // iterations and falls through to the enter that publishes everything.
    // Net effect: an iteration that finds ready work costs zero syscalls.
    const unsigned ready = ring_.ForEachCompletion(
        [this](uint64_t ud, int32_t res, uint32_t) { Dispatch(ud, res); });
    if (ready > 0) {
      last_round_cqes_ = ready;
      SyncStats();
      return;
    }
    // The single syscall of the iteration: submit every queued SQE and wait
    // for completions (or the timeout that paces drain/idle sweeps). After
    // a dense round, coalesce: wait for a batch sized to the previous
    // round, so one enter carries many completions instead of returning on
    // the first. The batch may never fill — on a request/response
    // connection the only event left to arrive is often our own worker's
    // wake, the peer being blocked on the reply — so the wait is bounded
    // by kCoalesceWindowUs: at most one window per enter, never more. A
    // round that comes back small turns coalescing off again, and sparse
    // traffic keeps min_complete 1 and pays no added latency.
    unsigned min_complete = 1;
    int64_t wait_us = timeout_ms < 0 ? -1 : int64_t{timeout_ms} * 1000;
    if (last_round_cqes_ >= 2) {
      min_complete = last_round_cqes_ < 8 ? last_round_cqes_ : 8;
      if (wait_us < 0 || wait_us > kCoalesceWindowUs) {
        wait_us = kCoalesceWindowUs;
      }
    }
    const Status waited = ring_.SubmitAndWait(wait_us, min_complete);
    if (!waited.ok()) {
      PKGM_LOG(Error) << "io_uring wait failed: " << waited.ToString();
    }
    if (min_complete > 1 && ring_.CompletionsReady() < min_complete) {
      coalesce_timeouts_.fetch_add(1, std::memory_order_relaxed);
    }
    last_round_cqes_ = ring_.ForEachCompletion(
        [this](uint64_t ud, int32_t res, uint32_t) { Dispatch(ud, res); });
    SyncStats();
  }

  IoBackendStats stats() const override {
    IoBackendStats s;
    s.wait_calls = enter_calls_.load(std::memory_order_relaxed);
    s.recv_submissions = recv_submissions_.load(std::memory_order_relaxed);
    s.send_submissions = send_submissions_.load(std::memory_order_relaxed);
    s.wakeups = wakeups_.load(std::memory_order_relaxed);
    s.coalesce_timeouts = coalesce_timeouts_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// Per-connection kernel-op state. recv_buf / send_buf are the buffers
  /// in-flight ops write/read; they (and this struct) must outlive the ops.
  struct ConnIo {
    int fd = -1;
    bool recv_armed = false;
    bool recv_paused = false;
    bool send_inflight = false;
    /// Removed by the caller but with ops still in flight; events are
    /// swallowed and the struct is reaped when the last op completes.
    bool zombie = false;
    std::vector<char> recv_buf;
    std::string send_buf;
    iovec send_iov{};
    msghdr send_msg{};
  };

  void ArmWakeRead() {
    io_uring_sqe* sqe = ring_.GetSqe();
    if (sqe == nullptr) return;  // retried implicitly: Poll re-arms via Dispatch
    PrepRead(sqe, wakeup_fd_, wake_buf_.get(), sizeof(uint64_t), kUdWake);
    wake_armed_ = true;
  }

  void ArmAcceptPoll() {
    if (listener_fd_ < 0) return;
    io_uring_sqe* sqe = ring_.GetSqe();
    if (sqe == nullptr) return;
    PrepPollIn(sqe, listener_fd_, kUdAccept);
    accept_armed_ = true;
  }

  void ArmRecv(uint64_t tag, ConnIo* conn) {
    io_uring_sqe* sqe = ring_.GetSqe();
    if (sqe == nullptr) {
      retry_recv_arm_.push_back(tag);
      return;
    }
    PrepRecv(sqe, conn->fd, conn->recv_buf.data(), conn->recv_buf.size(),
             (tag << 2) | kOpRecv);
    conn->recv_armed = true;
    recv_submissions_.fetch_add(1, std::memory_order_relaxed);
  }

  void QueueCancel(uint64_t target) {
    io_uring_sqe* sqe = ring_.GetSqe();
    if (sqe == nullptr) return;  // op will complete on its own eventually
    PrepCancel(sqe, target, kUdCancel);
  }

  void ReapIfIdle(uint64_t tag) {
    auto it = conns_.find(tag);
    if (it == conns_.end()) return;
    const ConnIo& conn = *it->second;
    if (conn.zombie && !conn.recv_armed && !conn.send_inflight) {
      conns_.erase(it);
    }
  }

  void Dispatch(uint64_t ud, int32_t res) {
    if (ud == kUdWake) {
      wake_armed_ = false;
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      // Re-arm before the handler runs: a signal racing the drain lands in
      // the eventfd counter and completes the fresh READ immediately.
      ArmWakeRead();
      handler_->OnWakeup();
      return;
    }
    if (ud == kUdAccept) {
      accept_armed_ = false;
      if (res >= 0 && listener_fd_ >= 0) {
        handler_->OnAcceptReady();
        ArmAcceptPoll();  // one-shot poll: re-arm after the accept sweep
      }
      return;
    }
    if (ud == kUdCancel) return;  // cancel's own completion: uninteresting

    const uint64_t tag = ud >> 2;
    const uint64_t op = ud & 3u;
    auto it = conns_.find(tag);
    if (it == conns_.end()) return;  // already reaped
    ConnIo& conn = *it->second;

    if (op == kOpRecv) {
      conn.recv_armed = false;
      if (conn.zombie) {
        ReapIfIdle(tag);
        return;
      }
      if (res > 0) {
        if (!conn.recv_paused) {
          handler_->OnData(tag, conn.recv_buf.data(),
                           static_cast<size_t>(res));
        }
        // The handler may have closed or paused the connection.
        auto again = conns_.find(tag);
        if (again != conns_.end() && !again->second->zombie &&
            !again->second->recv_paused && !again->second->recv_armed) {
          ArmRecv(tag, again->second.get());
        }
        return;
      }
      if (res == 0) {
        handler_->OnPeerClosed(tag);
        return;
      }
      if (res == -ECANCELED) return;  // paused or removed: stay quiet
      if (res == -EAGAIN || res == -EINTR) {
        if (!conn.recv_paused) ArmRecv(tag, &conn);
        return;
      }
      handler_->OnPeerClosed(tag);  // ECONNRESET and friends
      return;
    }

    // op == kOpSend
    conn.send_inflight = false;
    conn.send_buf.clear();
    if (conn.zombie) {
      ReapIfIdle(tag);
      return;
    }
    if (res >= 0) {
      handler_->OnSendComplete(tag, res);
      return;
    }
    if (res == -ECANCELED) return;
    if (res == -EAGAIN || res == -EINTR) {
      handler_->OnSendComplete(tag, 0);  // retired nothing: caller re-flushes
      return;
    }
    handler_->OnSendComplete(tag, res);  // fatal: caller closes
  }

  void SyncStats() {
    enter_calls_.store(ring_.enter_calls(), std::memory_order_relaxed);
  }

  /// Cancels and drains every in-flight op so no kernel op outlives the
  /// buffers it writes into. Ops that refuse to finish within the bound
  /// get their buffers intentionally leaked — a bounded leak at shutdown
  /// beats a kernel write into freed heap memory.
  void Shutdown() {
    if (!ring_.valid()) return;
    if (wake_armed_) QueueCancel(kUdWake);
    if (accept_armed_) QueueCancel(kUdAccept);
    for (auto& [tag, conn] : conns_) {
      if (conn->recv_armed) QueueCancel((tag << 2) | kOpRecv);
      if (conn->send_inflight) QueueCancel((tag << 2) | kOpSend);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (std::chrono::steady_clock::now() < deadline) {
      bool inflight = wake_armed_ || accept_armed_;
      for (const auto& [tag, conn] : conns_) {
        inflight = inflight || conn->recv_armed || conn->send_inflight;
      }
      if (!inflight) break;
      ring_.SubmitAndWait(20000);
      ring_.ForEachCompletion([this](uint64_t ud, int32_t res, uint32_t) {
        // Teardown drain: clear op flags only, never call the handler.
        if (ud == kUdWake) {
          wake_armed_ = false;
          return;
        }
        if (ud == kUdAccept) {
          accept_armed_ = false;
          return;
        }
        if (ud == kUdCancel) return;
        auto it = conns_.find(ud >> 2);
        if (it == conns_.end()) return;
        if ((ud & 3u) == kOpRecv) {
          it->second->recv_armed = false;
        } else {
          it->second->send_inflight = false;
        }
        (void)res;
      });
    }
    bool leaked = false;
    if (wake_armed_) {
      wake_buf_.release();  // the READ may still land; 8 bytes, intentional
      leaked = true;
    }
    for (auto& [tag, conn] : conns_) {
      if (conn->recv_armed || conn->send_inflight) {
        conn.release();
        leaked = true;
      }
    }
    conns_.clear();
    if (leaked) {
      PKGM_LOG(Warning)
          << "io_uring ops still in flight at backend shutdown; "
             "leaking their buffers";
    }
  }

  IoEventHandler* handler_ = nullptr;
  int wakeup_fd_ = -1;
  int listener_fd_ = -1;
  UringQueue ring_;
  std::unique_ptr<uint64_t> wake_buf_;
  bool wake_armed_ = false;
  bool accept_armed_ = false;
  std::unordered_map<uint64_t, std::unique_ptr<ConnIo>> conns_;
  std::vector<uint64_t> retry_recv_arm_;
  std::vector<uint64_t> retry_send_space_;
  /// Completions dispatched in the previous round — the density signal the
  /// coalescing wait in Poll() sizes itself from.
  unsigned last_round_cqes_ = 0;

  // Relaxed atomics: written by the loop thread, read by stats snapshots.
  std::atomic<uint64_t> enter_calls_{0};
  std::atomic<uint64_t> recv_submissions_{0};
  std::atomic<uint64_t> send_submissions_{0};
  std::atomic<uint64_t> wakeups_{0};
  std::atomic<uint64_t> coalesce_timeouts_{0};
};

}  // namespace

std::unique_ptr<IoBackend> CreateUringBackend() {
  return std::make_unique<UringBackend>();
}

}  // namespace pkgm::net
