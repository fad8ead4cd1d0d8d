#ifndef PKGM_NET_IO_BACKEND_H_
#define PKGM_NET_IO_BACKEND_H_

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

namespace pkgm::net {

/// Outcome of IoBackend::SubmitSend.
struct SendResult {
  enum class Kind {
    /// `bytes` were written synchronously (possibly a partial write); the
    /// caller may retire them and submit more.
    kSent,
    /// Nothing was accepted; the backend will call OnSendSpace(tag) when a
    /// retry can make progress.
    kWouldBlock,
    /// The backend accepted (a prefix of) the data asynchronously and will
    /// call OnSendComplete(tag, n) with the byte count actually written.
    /// Until then the caller must not submit another send for this tag.
    kAsync,
    /// Fatal socket error; the caller should close the connection.
    kError,
  };
  Kind kind = Kind::kError;
  size_t bytes = 0;
};

/// Callbacks an IoBackend delivers from inside Poll(), always on the loop
/// thread. A handler may add/remove connections and submit sends reentrantly;
/// after any callback the backend re-checks that the connection still exists
/// before touching it again.
class IoEventHandler {
 public:
  virtual ~IoEventHandler() = default;

  /// The listener has pending connections; the handler accept()s them.
  virtual void OnAcceptReady() = 0;
  /// The wakeup eventfd fired (cross-thread mailboxes have work).
  virtual void OnWakeup() = 0;
  /// `len` bytes arrived on connection `tag`. The buffer is only valid for
  /// the duration of the call.
  virtual void OnData(uint64_t tag, const char* data, size_t len) = 0;
  /// EOF or a fatal read/write error on connection `tag`.
  virtual void OnPeerClosed(uint64_t tag) = 0;
  /// An async send finished; `n` is the byte count written (>= 0) or a
  /// negative errno on failure.
  virtual void OnSendComplete(uint64_t tag, int64_t n) = 0;
  /// A previously would-blocked send can be retried.
  virtual void OnSendSpace(uint64_t tag) = 0;
};

/// Per-loop syscall accounting, summed across loops into
/// serve::NetCounters so the uring win is measurable, not anecdotal.
struct IoBackendStats {
  /// Blocking waits: epoll_wait calls, or io_uring_enter calls (every
  /// enter — waits and submit-only flushes — is one syscall).
  uint64_t wait_calls = 0;
  /// recv-side syscalls (read()); 0 on io_uring, where receives ride the
  /// ring.
  uint64_t recv_syscalls = 0;
  /// send-side syscalls (sendmsg()); 0 on io_uring.
  uint64_t send_syscalls = 0;
  /// RECV / SENDMSG submissions queued to the ring (io_uring only).
  uint64_t recv_submissions = 0;
  uint64_t send_submissions = 0;
  /// Wakeup-eventfd signals consumed.
  uint64_t wakeups = 0;
  /// Coalescing waits whose moderation window ran out before the batch
  /// they asked for arrived (io_uring only): each one added up to a window
  /// of latency to its round.
  uint64_t coalesce_timeouts = 0;
};

/// The I/O backend seam: everything about *how* readiness/completion is
/// obtained for one event loop lives behind this interface, so the
/// NetServer loop (connection ownership, outbox, drain, idle reaping) is
/// backend-agnostic. One instance per I/O thread; not thread-safe — every
/// method runs on the owning loop thread.
class IoBackend {
 public:
  virtual ~IoBackend() = default;

  /// "epoll" or "io_uring".
  virtual const char* name() const = 0;

  /// `wakeup_fd` is an eventfd other threads write to; the backend turns
  /// its readability into OnWakeup(). The handler must outlive the backend.
  virtual Status Init(IoEventHandler* handler, int wakeup_fd) = 0;

  /// Watches the (non-blocking) listener; readiness => OnAcceptReady().
  virtual Status AttachListener(int fd) = 0;
  virtual void DetachListener() = 0;

  /// Registers connection `tag`/`fd`. When `want_recv`, incoming bytes are
  /// delivered via OnData until PauseRecv.
  virtual Status AddConnection(uint64_t tag, int fd, bool want_recv) = 0;

  /// Stops delivering OnData for `tag` (drain mode). There is no resume.
  virtual void PauseRecv(uint64_t tag) = 0;

  /// Unregisters `tag`. Must be called while `fd` is still open — the
  /// backend flushes or cancels any queued kernel ops that reference the fd
  /// before returning, so the caller may close it immediately after.
  virtual void RemoveConnection(uint64_t tag) = 0;

  /// Sends the gathered iovecs on connection `tag`. See SendResult; a
  /// kAsync backend may accept only a prefix (bounded copy).
  virtual SendResult SubmitSend(uint64_t tag, int fd, const iovec* iov,
                                int iovcnt) = 0;

  /// Runs one loop iteration: waits up to `timeout_ms` for events and
  /// delivers them to the handler.
  virtual void Poll(int timeout_ms) = 0;

  virtual IoBackendStats stats() const = 0;
};

enum class IoBackendKind { kEpoll, kUring };

const char* IoBackendKindName(IoBackendKind kind);

/// True when io_uring with the required features is usable here (cached
/// probe; see SetUringProbeOverrideForTesting).
bool UringAvailable();

/// Test hook: 0 forces the probe to report unavailable, 1 available, -1
/// restores the real probe.
void SetUringProbeOverrideForTesting(int forced);

/// Picks the backend: `override_opt` (from NetServerOptions) wins, then the
/// PKGM_NET_IO environment variable ("uring" / "epoll", mirroring
/// PKGM_KERNEL), then the runtime probe (uring when available). A uring
/// request on a kernel without support logs one warning and falls back to
/// epoll.
IoBackendKind SelectIoBackend(const std::string& override_opt = "");

std::unique_ptr<IoBackend> CreateIoBackend(IoBackendKind kind);

/// Implementations (epoll_backend.cc / uring_backend.cc).
std::unique_ptr<IoBackend> CreateEpollBackend();
std::unique_ptr<IoBackend> CreateUringBackend();

}  // namespace pkgm::net

#endif  // PKGM_NET_IO_BACKEND_H_
