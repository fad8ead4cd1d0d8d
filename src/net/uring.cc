#include "net/uring.h"

#include <errno.h>
#include <linux/time_types.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>

#include "util/string_util.h"

namespace pkgm::net {
namespace {

// glibc has no wrappers for the io_uring syscalls.
int SysIoUringSetup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int SysIoUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags, const void* arg, size_t argsz) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, arg, argsz));
}

constexpr unsigned kRequiredFeatures =
    IORING_FEAT_SINGLE_MMAP | IORING_FEAT_NODROP | IORING_FEAT_EXT_ARG;

inline unsigned LoadAcquire(const unsigned* p) {
  return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}

inline void StoreRelease(unsigned* p, unsigned v) {
  __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

}  // namespace

UringQueue::~UringQueue() { Close(); }

void UringQueue::Close() {
  if (sq_ring_ != nullptr) {
    ::munmap(sq_ring_, sq_ring_bytes_);
    sq_ring_ = nullptr;
  }
  if (sqes_ != nullptr) {
    ::munmap(sqes_, sqes_bytes_);
    sqes_ = nullptr;
  }
  if (ring_fd_ >= 0) {
    ::close(ring_fd_);
    ring_fd_ = -1;
  }
}

Status UringQueue::Init(unsigned entries) {
  io_uring_params p;
  std::memset(&p, 0, sizeof(p));
  p.flags = IORING_SETUP_CQSIZE;
  p.cq_entries = entries * 4;

  const int fd = SysIoUringSetup(entries, &p);
  if (fd < 0) {
    const int err = errno;
    if (err == ENOSYS || err == EPERM || err == EINVAL) {
      // Missing syscall, seccomp, or a kernel too old for CQSIZE: this is
      // "no io_uring here", not a transient failure.
      return Status::FailedPrecondition(
          StrFormat("io_uring_setup: %s", std::strerror(err)));
    }
    return Status::IoError(
        StrFormat("io_uring_setup: %s", std::strerror(err)));
  }
  if ((p.features & kRequiredFeatures) != kRequiredFeatures) {
    ::close(fd);
    return Status::FailedPrecondition(
        StrFormat("io_uring lacks required features (have 0x%x)",
                  p.features));
  }
  ring_fd_ = fd;

  // SINGLE_MMAP: one mapping covers both rings; size is the larger of the
  // two layouts.
  const size_t sq_bytes = p.sq_off.array + p.sq_entries * sizeof(unsigned);
  const size_t cq_bytes = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
  sq_ring_bytes_ = sq_bytes > cq_bytes ? sq_bytes : cq_bytes;
  sq_ring_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
  if (sq_ring_ == MAP_FAILED) {
    sq_ring_ = nullptr;
    Close();
    return Status::IoError(
        StrFormat("io_uring ring mmap: %s", std::strerror(errno)));
  }
  sqes_bytes_ = p.sq_entries * sizeof(io_uring_sqe);
  sqes_ = static_cast<io_uring_sqe*>(
      ::mmap(nullptr, sqes_bytes_, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES));
  if (sqes_ == MAP_FAILED) {
    sqes_ = nullptr;
    Close();
    return Status::IoError(
        StrFormat("io_uring sqe mmap: %s", std::strerror(errno)));
  }

  char* ring = static_cast<char*>(sq_ring_);
  sq_head_ = reinterpret_cast<unsigned*>(ring + p.sq_off.head);
  sq_tail_ = reinterpret_cast<unsigned*>(ring + p.sq_off.tail);
  sq_mask_ = *reinterpret_cast<unsigned*>(ring + p.sq_off.ring_mask);
  sq_entries_ = *reinterpret_cast<unsigned*>(ring + p.sq_off.ring_entries);
  sq_flags_ = reinterpret_cast<unsigned*>(ring + p.sq_off.flags);
  sq_array_ = reinterpret_cast<unsigned*>(ring + p.sq_off.array);
  cq_head_ = reinterpret_cast<unsigned*>(ring + p.cq_off.head);
  cq_tail_ = reinterpret_cast<unsigned*>(ring + p.cq_off.tail);
  cq_mask_ = *reinterpret_cast<unsigned*>(ring + p.cq_off.ring_mask);
  cqes_ = reinterpret_cast<io_uring_cqe*>(ring + p.cq_off.cqes);
  sqe_tail_ = *sq_tail_;
  return Status::Ok();
}

io_uring_sqe* UringQueue::GetSqe() {
  if (sqe_tail_ - LoadAcquire(sq_head_) >= sq_entries_) {
    // SQ full: flush what's queued so the kernel frees slots.
    Submit();
    if (sqe_tail_ - LoadAcquire(sq_head_) >= sq_entries_) return nullptr;
  }
  io_uring_sqe* sqe = &sqes_[sqe_tail_ & sq_mask_];
  sq_array_[sqe_tail_ & sq_mask_] = sqe_tail_ & sq_mask_;
  ++sqe_tail_;
  ++sqes_issued_;
  std::memset(sqe, 0, sizeof(*sqe));
  return sqe;
}

int UringQueue::Enter(unsigned to_submit, unsigned min_complete,
                      unsigned flags, const void* arg, size_t argsz) {
  ++enter_calls_;
  return SysIoUringEnter(ring_fd_, to_submit, min_complete, flags, arg,
                         argsz);
}

Status UringQueue::Submit() {
  StoreRelease(sq_tail_, sqe_tail_);
  const unsigned to_submit = sqe_tail_ - LoadAcquire(sq_head_);
  if (to_submit == 0) return Status::Ok();
  const int ret = Enter(to_submit, 0, 0, nullptr, 0);
  if (ret < 0 && errno != EINTR && errno != EBUSY && errno != EAGAIN) {
    return Status::IoError(
        StrFormat("io_uring_enter(submit): %s", std::strerror(errno)));
  }
  return Status::Ok();
}

Status UringQueue::SubmitAndWait(int64_t timeout_us, unsigned min_complete) {
  StoreRelease(sq_tail_, sqe_tail_);
  const unsigned to_submit = sqe_tail_ - LoadAcquire(sq_head_);
  // Completions may already be sitting in the CQ; a wait with min_complete
  // of 1 still returns immediately in that case, so no pre-check needed.
  unsigned flags = IORING_ENTER_GETEVENTS;
  io_uring_getevents_arg arg;
  std::memset(&arg, 0, sizeof(arg));
  __kernel_timespec ts;
  const void* argp = nullptr;
  size_t argsz = 0;
  if (timeout_us >= 0) {
    ts.tv_sec = timeout_us / 1000000;
    ts.tv_nsec = static_cast<long long>(timeout_us % 1000000) * 1000;
    arg.ts = reinterpret_cast<uint64_t>(&ts);
    flags |= IORING_ENTER_EXT_ARG;
    argp = &arg;
    argsz = sizeof(arg);
  }
  const int ret = Enter(to_submit, min_complete, flags, argp, argsz);
  if (ret < 0) {
    const int err = errno;
    // ETIME: the wait timed out. EINTR: signal. EBUSY/EAGAIN: the CQ is
    // backed up (NODROP buffering) — the caller's drain frees it.
    if (err == ETIME || err == EINTR || err == EBUSY || err == EAGAIN) {
      return Status::Ok();
    }
    return Status::IoError(
        StrFormat("io_uring_enter(wait): %s", std::strerror(err)));
  }
  return Status::Ok();
}

unsigned UringQueue::PopCompletions(Completion* out, unsigned max) {
  const unsigned head = *cq_head_;
  const unsigned tail = LoadAcquire(cq_tail_);
  unsigned n = tail - head;
  if (n == 0) return 0;
  if (n > max) n = max;
  for (unsigned i = 0; i < n; ++i) {
    const io_uring_cqe& cqe = cqes_[(head + i) & cq_mask_];
    out[i].user_data = cqe.user_data;
    out[i].res = cqe.res;
    out[i].flags = cqe.flags;
  }
  StoreRelease(cq_head_, head + n);
  return n;
}

bool UringSupported() {
  static const bool supported = [] {
    UringQueue probe;
    return probe.Init(8).ok();
  }();
  return supported;
}

}  // namespace pkgm::net
