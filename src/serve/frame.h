// Copyright 2026 The SONG-Repro Authors.
//
// Wire protocol for the serving front-end (docs/serving.md): length-prefixed
// binary frames over TCP, little-endian, no external dependencies. The codec
// is split from the transport so the decode paths are fuzzable as pure
// buffer functions (tests/serve/frame_codec_test.cc runs a 200+ case
// seed-driven corruption corpus over them, mirroring the corrupt-file fuzz
// that guards the .sngd/.sngg loaders).
//
// Every frame starts with a fixed 12-byte header:
//
//   offset  size  field
//        0     4  magic "SNGF"
//        4     1  frame type (FrameType)
//        5     1  protocol version (kProtocolVersion)
//        6     2  reserved, must be zero
//        8     4  payload length in bytes (<= kMaxFramePayload)
//
// Hostile lengths are rejected *before* any allocation, the same discipline
// the .sngd loader applies to its headers: a claimed payload larger than
// kMaxFramePayload is kDataLoss, not a 4 GiB vector resize. Truncated
// payloads, length/field mismatches and reserved-bit violations are all
// typed Status errors — the server never crashes on a byte stream, it
// closes the connection with an accounted reason.

#ifndef SONG_SERVE_FRAME_H_
#define SONG_SERVE_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace song::serve {

/// "SNGF" read as a little-endian u32.
inline constexpr uint32_t kFrameMagic = 0x46474e53u;
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;

/// Upper bound on a single frame's payload. Generous for responses carrying
/// thousands of results, tiny next to what a hostile 32-bit length field can
/// claim (4 GiB).
inline constexpr size_t kMaxFramePayload = 16u << 20;

/// Bounds on variable-length fields inside payloads, checked before any
/// allocation sized by them.
inline constexpr uint32_t kMaxQueryDim = 1u << 20;
inline constexpr uint32_t kMaxResponseResults = 1u << 20;
inline constexpr uint32_t kMaxResponseMessageBytes = 1u << 12;

enum class FrameType : uint8_t {
  kSearchRequest = 1,
  kSearchResponse = 2,
  kPing = 3,
  kPong = 4,
  kStatuszRequest = 5,
  kStatuszResponse = 6,
};

/// True for the frame types a peer may legitimately send.
bool IsKnownFrameType(uint8_t type);

struct FrameHeader {
  FrameType type = FrameType::kPing;
  uint32_t payload_len = 0;
};

/// A fully received frame.
struct Frame {
  FrameType type = FrameType::kPing;
  std::vector<uint8_t> payload;
};

/// One search request. `client_tag` is an opaque client-chosen id echoed
/// verbatim in the response (clients use it to match pipelined responses);
/// the server assigns its own request ids for telemetry. `queue_size` = 0
/// asks for the server's default ef. `deadline_us` caps the request's whole
/// server-side life — queue wait included — and `cost_budget` caps the
/// search's deterministic work units; 0 disables either.
struct SearchRequestFrame {
  uint64_t client_tag = 0;
  uint32_t k = 0;
  uint32_t queue_size = 0;
  uint64_t deadline_us = 0;
  uint64_t cost_budget = 0;
  std::vector<float> query;
};

/// One search response. `status_code` carries the request's StatusCode as an
/// int (kOk for served results, kUnavailable for sheds — retryable — and so
/// on); `message` is the Status message for non-OK outcomes. `queue_us` /
/// `search_us` are the server-side stage times so clients can split their
/// observed latency into server queueing, server search and network.
struct SearchResponseFrame {
  uint64_t client_tag = 0;
  int32_t status_code = 0;
  bool degraded = false;
  float queue_us = 0.0f;
  float search_us = 0.0f;
  std::string message;
  std::vector<Neighbor> results;
};

/// Appends the 12-byte header + payload bytes for a frame to `out`.
void AppendFrame(FrameType type, const uint8_t* payload, size_t payload_len,
                 std::vector<uint8_t>* out);

/// Parses a header from exactly kFrameHeaderBytes bytes. Rejects bad magic,
/// unknown version/type, nonzero reserved bits and payloads claiming more
/// than kMaxFramePayload — all kDataLoss, before anything is allocated.
StatusOr<FrameHeader> DecodeFrameHeader(const uint8_t* bytes, size_t len);

/// Encodes a complete search-request frame (header included) onto `out`.
void EncodeSearchRequest(const SearchRequestFrame& request,
                         std::vector<uint8_t>* out);

/// Decodes a search-request payload. The payload length must equal the
/// fixed header plus exactly dim floats; dim = 0, dim > kMaxQueryDim and
/// nonzero reserved flags are rejected.
StatusOr<SearchRequestFrame> DecodeSearchRequest(const uint8_t* payload,
                                                 size_t len);

/// Encodes a complete search-response frame (header included) onto `out`.
/// The message is truncated to kMaxResponseMessageBytes.
void EncodeSearchResponse(const SearchResponseFrame& response,
                          std::vector<uint8_t>* out);

/// Decodes a search-response payload (used by clients: loadgen, tests).
StatusOr<SearchResponseFrame> DecodeSearchResponse(const uint8_t* payload,
                                                   size_t len);

/// Blocking framed I/O over a connected socket with per-syscall poll()
/// timeouts, so one stalled peer can never wedge a server thread forever.
/// Not thread-safe; the server gives each connection one reader and one
/// writer transport-owning thread.
class FrameTransport {
 public:
  /// Does not take ownership of `fd`. `io_timeout_ms` bounds how long a
  /// single read/write may sit in poll() waiting for the peer (<= 0 waits
  /// forever — tests only).
  FrameTransport(int fd, int io_timeout_ms)
      : fd_(fd), io_timeout_ms_(io_timeout_ms) {}

  /// Reads one whole frame. Error taxonomy:
  ///   kUnavailable       peer closed cleanly at a frame boundary
  ///   kDataLoss          mid-frame EOF, bad magic, hostile length, ...
  ///   kDeadlineExceeded  peer stalled past io_timeout_ms (slow client)
  ///   kInternal          socket error (errno reported in the message)
  StatusOr<Frame> ReadFrame();

  /// Writes `len` bytes (one or more already-encoded frames). Same timeout
  /// discipline as ReadFrame; partial writes past the deadline are
  /// kDeadlineExceeded.
  Status WriteBytes(const uint8_t* bytes, size_t len);
  Status WriteBytes(const std::vector<uint8_t>& bytes) {
    return WriteBytes(bytes.data(), bytes.size());
  }

 private:
  Status ReadFully(uint8_t* out, size_t len, bool* clean_eof);

  int fd_;
  int io_timeout_ms_;
};

}  // namespace song::serve

#endif  // SONG_SERVE_FRAME_H_
