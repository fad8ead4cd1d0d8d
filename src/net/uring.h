#ifndef PKGM_NET_URING_H_
#define PKGM_NET_URING_H_

#include <linux/io_uring.h>
#include <poll.h>
#include <sys/socket.h>

#include <cstdint>
#include <cstring>

#include "util/status.h"

namespace pkgm::net {

/// Minimal io_uring wrapper over the raw syscalls (the toolchain image has
/// kernel headers but no liburing). One submission queue + one completion
/// queue, single-threaded: exactly one thread may touch a UringQueue. The
/// queue refuses to initialize unless the kernel grants the features the
/// backends rely on:
///   - SINGLE_MMAP   (one mmap covers both rings; 5.4+)
///   - NODROP        (CQ overflow is buffered, never silently dropped; 5.5+)
///   - EXT_ARG       (timed waits without a timeout SQE; 5.11+)
///
/// Ops are identified by the caller-chosen 64-bit user_data; completions are
/// drained with ForEachCompletion. SQEs queued via GetSqe() are published to
/// the kernel by the next Submit()/SubmitAndWait().
class UringQueue {
 public:
  UringQueue() = default;
  ~UringQueue();

  UringQueue(const UringQueue&) = delete;
  UringQueue& operator=(const UringQueue&) = delete;

  /// Creates the ring with `entries` SQ slots (rounded up to a power of
  /// two by the kernel) and a 4x CQ. Fails with FailedPrecondition when
  /// io_uring is unavailable or lacks the required features, IoError on
  /// resource errors (e.g. RLIMIT_MEMLOCK).
  Status Init(unsigned entries);

  bool valid() const { return ring_fd_ >= 0; }

  /// Next free SQE, zeroed, or nullptr when the SQ is full even after
  /// flushing queued entries to the kernel.
  io_uring_sqe* GetSqe();

  /// Publishes queued SQEs to the kernel without waiting. No-op (Ok) when
  /// nothing is queued, so callers can flush unconditionally.
  Status Submit();

  /// Publishes queued SQEs and waits for at least `min_complete`
  /// completions or the timeout (microseconds; < 0 waits indefinitely,
  /// 0 polls). A timeout or signal is Ok — the caller just drains whatever
  /// arrived. `min_complete` > 1 is completion coalescing: when fewer
  /// completions can arrive (e.g. the peer is blocked on our reply) the
  /// enter sleeps out the whole timeout, so the timeout is the most one
  /// coalescing enter adds to a round — once per enter, never more.
  Status SubmitAndWait(int64_t timeout_us, unsigned min_complete = 1);

  /// Completions published to the CQ and not yet drained (no syscall).
  unsigned CompletionsReady() const {
    return __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE) - *cq_head_;
  }

  /// Drains every pending CQE into `fn(user_data, res, flags)`. Returns the
  /// number of completions consumed. Entries are copied out before `fn`
  /// runs, so `fn` may queue new SQEs.
  template <typename Fn>
  unsigned ForEachCompletion(Fn&& fn) {
    unsigned drained = 0;
    // Batch through a small stack buffer: advancing the CQ head as we copy
    // lets the kernel flush buffered overflow (NODROP) into the freed slots
    // on the next enter.
    Completion batch[64];
    unsigned n;
    while ((n = PopCompletions(batch, 64)) > 0) {
      for (unsigned i = 0; i < n; ++i) {
        fn(batch[i].user_data, batch[i].res, batch[i].flags);
      }
      drained += n;
    }
    return drained;
  }

  /// io_uring_enter invocations (each is one syscall; the uring backend's
  /// whole syscall budget).
  uint64_t enter_calls() const { return enter_calls_; }

  /// SQEs handed out (== ops submitted once flushed).
  uint64_t sqes_issued() const { return sqes_issued_; }

 private:
  struct Completion {
    uint64_t user_data;
    int32_t res;
    uint32_t flags;
  };

  unsigned PopCompletions(Completion* out, unsigned max);
  int Enter(unsigned to_submit, unsigned min_complete, unsigned flags,
            const void* arg, size_t argsz);
  void Close();

  int ring_fd_ = -1;

  // SQ ring (mmap'd, shared with the kernel).
  void* sq_ring_ = nullptr;
  size_t sq_ring_bytes_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned sq_entries_ = 0;
  unsigned* sq_flags_ = nullptr;
  unsigned* sq_array_ = nullptr;
  io_uring_sqe* sqes_ = nullptr;
  size_t sqes_bytes_ = 0;
  /// Local (unpublished) tail; published to *sq_tail_ on submit.
  unsigned sqe_tail_ = 0;

  // CQ ring (same mmap under SINGLE_MMAP).
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;

  uint64_t enter_calls_ = 0;
  uint64_t sqes_issued_ = 0;
};

/// True when this kernel/container can create a UringQueue with the
/// required feature set (result cached after the first probe).
bool UringSupported();

// --- SQE prep helpers (mirror liburing's io_uring_prep_*) ------------------

inline void PrepRecv(io_uring_sqe* sqe, int fd, void* buf, size_t len,
                     uint64_t user_data) {
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<uint64_t>(buf);
  sqe->len = static_cast<uint32_t>(len);
  sqe->user_data = user_data;
}

inline void PrepSendmsg(io_uring_sqe* sqe, int fd, const msghdr* msg,
                        uint64_t user_data) {
  sqe->opcode = IORING_OP_SENDMSG;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<uint64_t>(msg);
  sqe->len = 1;
  sqe->msg_flags = MSG_NOSIGNAL;
  sqe->user_data = user_data;
}

inline void PrepRead(io_uring_sqe* sqe, int fd, void* buf, size_t len,
                     uint64_t user_data) {
  sqe->opcode = IORING_OP_READ;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<uint64_t>(buf);
  sqe->len = static_cast<uint32_t>(len);
  sqe->user_data = user_data;
}

inline void PrepPollIn(io_uring_sqe* sqe, int fd, uint64_t user_data) {
  sqe->opcode = IORING_OP_POLL_ADD;
  sqe->fd = fd;
  sqe->poll32_events = POLLIN;
  sqe->user_data = user_data;
}

/// Cancels the in-flight op whose user_data matches `target`. Completes
/// -ENOENT when nothing matches — harmless.
inline void PrepCancel(io_uring_sqe* sqe, uint64_t target,
                       uint64_t user_data) {
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->fd = -1;
  sqe->addr = target;
  sqe->user_data = user_data;
}

}  // namespace pkgm::net

#endif  // PKGM_NET_URING_H_
