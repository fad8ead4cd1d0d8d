#include "wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace pkgmbench {
namespace {

constexpr uint32_t kMagic = 0x4d474b50;
constexpr uint8_t kVersion = 3;
constexpr size_t kHeaderBytes = 24;
constexpr uint32_t kMaxPayload = 4u << 20;

template <typename T>
void Put(T v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Bounds-checked little-endian reader over a payload.
struct Cursor {
  const std::string& s;
  size_t pos = 0;
  template <typename T>
  bool Get(T* v) {
    if (s.size() - pos < sizeof(T)) return false;
    std::memcpy(v, s.data() + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }
  bool done() const { return pos == s.size(); }
};

}  // namespace

uint32_t Crc32c(const void* data, size_t len) {
  static const auto table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ 0x82f63b78u : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~0u;
  for (size_t i = 0; i < len; ++i) crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  return ~crc;
}

std::string EncodeFrame(uint8_t type, uint64_t correlation_id,
                        const std::string& payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  Put<uint32_t>(kMagic, &out);
  Put<uint8_t>(kVersion, &out);
  Put<uint8_t>(type, &out);
  Put<uint16_t>(0, &out);
  Put<uint64_t>(correlation_id, &out);
  Put<uint32_t>(static_cast<uint32_t>(payload.size()), &out);
  Put<uint32_t>(Crc32c(payload.data(), payload.size()), &out);
  out += payload;
  return out;
}

std::string EncodeRequest(uint64_t correlation_id, const Request& r) {
  constexpr uint8_t kModeAll = 2, kFormCondensed = 1;
  std::string p;
  Put<uint32_t>(1, &p);  // one entry
  uint8_t type = kGetVectors;
  switch (r.kind) {
    case kLookup:
      Put<uint32_t>(r.item, &p);
      Put<uint8_t>(kModeAll, &p);
      Put<uint8_t>(kFormCondensed, &p);
      break;
    case kRecommendKind:
      type = kRecommend;
      Put<uint32_t>(r.user, &p);
      Put<uint32_t>(r.item, &p);
      Put<uint8_t>(kModeAll, &p);
      Put<uint8_t>(0, &p);
      break;
    case kClassifyKind:
      type = kClassify;
      Put<uint32_t>(r.item, &p);
      Put<uint32_t>(r.top_k, &p);
      Put<uint8_t>(kModeAll, &p);
      Put<uint8_t>(0, &p);
      break;
    case kAlignKind:
      type = kAlign;
      Put<uint32_t>(r.item, &p);
      Put<uint32_t>(r.item_b, &p);
      Put<uint8_t>(kModeAll, &p);
      Put<uint8_t>(0, &p);
      break;
  }
  Put<uint16_t>(0, &p);  // tenant
  Put<uint32_t>(0, &p);  // no deadline
  return EncodeFrame(type, correlation_id, p);
}

bool DecodeReply(const Frame& frame, Reply* reply) {
  Cursor c{frame.payload};
  uint32_t count = 0;
  uint8_t flags = 0;
  if (!c.Get(&count) || count != 1 || !c.Get(&reply->code) || !c.Get(&flags)) {
    return false;
  }
  reply->cache_hit = (flags & 1) != 0;
  switch (frame.type) {
    case kVectors: {
      uint16_t reserved;
      uint32_t num_vectors = 0, len = 0;
      if (!c.Get(&reserved) || !c.Get(&num_vectors)) return false;
      if (num_vectors > 1) return false;
      if (num_vectors == 1) {
        if (!c.Get(&len) || len > (frame.payload.size() - c.pos) / 4) {
          return false;
        }
        reply->vector.resize(len);
        for (float& v : reply->vector) c.Get(&v);
      }
      return c.done();
    }
    case kRecommendReply:
    case kAlignReply: {
      uint16_t reserved;
      return c.Get(&reserved) && c.Get(&reply->score) && c.done();
    }
    case kClassifyReply: {
      uint16_t k = 0;
      if (!c.Get(&k) || k > (frame.payload.size() - c.pos) / 8) return false;
      reply->class_ids.resize(k);
      reply->class_probs.resize(k);
      for (uint16_t i = 0; i < k; ++i) {
        c.Get(&reply->class_ids[i]);
        c.Get(&reply->class_probs[i]);
      }
      return c.done();
    }
    default:
      return false;
  }
}

WireConn::~WireConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool WireConn::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool WireConn::Send(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool WireConn::ReadFrame(Frame* frame) {
  for (;;) {
    const size_t avail = buf_.size() - pos_;
    if (avail >= kHeaderBytes) {
      const char* h = buf_.data() + pos_;
      uint32_t magic, len, crc;
      std::memcpy(&magic, h, 4);
      std::memcpy(&len, h + 16, 4);
      std::memcpy(&crc, h + 20, 4);
      if (magic != kMagic || static_cast<uint8_t>(h[4]) != kVersion ||
          h[6] != 0 || h[7] != 0 || len > kMaxPayload) {
        return false;
      }
      if (avail >= kHeaderBytes + len) {
        frame->type = static_cast<uint8_t>(h[5]);
        std::memcpy(&frame->correlation_id, h + 8, 8);
        frame->payload.assign(h + kHeaderBytes, len);
        pos_ += kHeaderBytes + len;
        return Crc32c(frame->payload.data(), len) == crc;
      }
    }
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    char tmp[65536];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<size_t>(n));
  }
}

bool WireConn::Call(uint8_t type, uint64_t correlation_id,
                    const std::string& payload, Frame* reply) {
  if (!Send(EncodeFrame(type, correlation_id, payload))) return false;
  while (ReadFrame(reply)) {
    if (reply->correlation_id == correlation_id) return true;
  }
  return false;
}

void WireConn::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace pkgmbench
