// A minimal client of the PKGM wire protocol, written from the documented
// frame layout (24-byte little-endian header, CRC32C over the payload) so
// the benchmark stamps every reply the moment its bytes arrive and does not
// depend on the program's client library or codec functions.
#ifndef PKGMBENCH_WIRE_CLIENT_H_
#define PKGMBENCH_WIRE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pkgmbench {

enum FrameType : uint8_t {
  kGetVectors = 1,
  kVectors = 2,
  kStats = 3,
  kStatsJson = 4,
  kPing = 5,
  kPong = 6,
  kError = 7,
  kPullRows = 8,
  kRows = 9,
  kPushGrads = 10,
  kPushAck = 11,
  kShardInfo = 12,
  kShardInfoReply = 13,
  kRecommend = 16,
  kRecommendReply = 17,
  kClassify = 18,
  kClassifyReply = 19,
  kAlign = 20,
  kAlignReply = 21,
};

/// Request kinds, numbered as the protocol's task kinds.
enum Kind : uint8_t { kLookup = 0, kRecommendKind = 1, kClassifyKind = 2, kAlignKind = 3 };
inline const char* KindName(uint8_t k) {
  static const char* names[] = {"lookup", "recommend", "classify", "align"};
  return k < 4 ? names[k] : "unknown";
}

struct Request {
  uint8_t kind = kLookup;
  uint32_t item = 0;
  uint32_t user = 0;    // recommend
  uint32_t item_b = 0;  // align
  uint32_t top_k = 1;   // classify
};

struct Reply {
  uint8_t code = 255;  // 0 = ok
  bool cache_hit = false;
  std::vector<float> vector;  // lookup: the condensed vector
  float score = 0.0f;         // recommend / align
  std::vector<uint32_t> class_ids;
  std::vector<float> class_probs;
};

struct Frame {
  uint8_t type = 0;
  uint64_t correlation_id = 0;
  std::string payload;
};

uint32_t Crc32c(const void* data, size_t len);

/// One complete frame (header + payload).
std::string EncodeFrame(uint8_t type, uint64_t correlation_id,
                        const std::string& payload);
/// One single-request frame of the request's kind (condensed form, kAll
/// mode, default tenant, no deadline).
std::string EncodeRequest(uint64_t correlation_id, const Request& request);
/// Decodes a single-entry reply frame; false on any malformed payload.
bool DecodeReply(const Frame& frame, Reply* reply);

/// One blocking TCP connection to 127.0.0.1:port.
class WireConn {
 public:
  WireConn() = default;
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  bool Connect(uint16_t port);
  bool Send(const std::string& bytes);
  /// Blocks for the next complete frame; false on EOF, error or a frame
  /// whose header or CRC is invalid.
  bool ReadFrame(Frame* frame);
  /// Sends one frame and reads frames until the reply with its id arrives.
  bool Call(uint8_t type, uint64_t correlation_id, const std::string& payload,
            Frame* reply);
  /// Unblocks a reader (shutdown(2)); the fd stays owned until destruction.
  void Shutdown();

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

}  // namespace pkgmbench

#endif  // PKGMBENCH_WIRE_CLIENT_H_
