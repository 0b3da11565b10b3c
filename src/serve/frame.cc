#include "serve/frame.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/logging.h"

namespace song::serve {

namespace {

/// Little-endian scalar append/read. The on-disk formats (.sngd/.sngg) make
/// the same host-endianness assumption; the wire format shares it.
template <typename T>
void AppendScalar(std::vector<uint8_t>* out, T value) {
  const size_t offset = out->size();
  out->resize(offset + sizeof(T));
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

template <typename T>
T ReadScalar(const uint8_t* bytes) {
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

std::string ErrnoMessage(const char* what, int err) {
  return std::string(what) + " failed: errno " + std::to_string(err);
}

}  // namespace

bool IsKnownFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kSearchRequest:
    case FrameType::kSearchResponse:
    case FrameType::kPing:
    case FrameType::kPong:
    case FrameType::kStatuszRequest:
    case FrameType::kStatuszResponse:
      return true;
  }
  return false;
}

void AppendFrame(FrameType type, const uint8_t* payload, size_t payload_len,
                 std::vector<uint8_t>* out) {
  SONG_CHECK(payload_len <= kMaxFramePayload);
  AppendScalar<uint32_t>(out, kFrameMagic);
  AppendScalar<uint8_t>(out, static_cast<uint8_t>(type));
  AppendScalar<uint8_t>(out, kProtocolVersion);
  AppendScalar<uint16_t>(out, 0);  // reserved
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(payload_len));
  if (payload_len > 0) {
    const size_t offset = out->size();
    out->resize(offset + payload_len);
    std::memcpy(out->data() + offset, payload, payload_len);
  }
}

StatusOr<FrameHeader> DecodeFrameHeader(const uint8_t* bytes, size_t len) {
  if (len < kFrameHeaderBytes) {
    return Status::DataLoss("frame header truncated: " + std::to_string(len) +
                            " of " + std::to_string(kFrameHeaderBytes) +
                            " bytes");
  }
  const uint32_t magic = ReadScalar<uint32_t>(bytes);
  if (magic != kFrameMagic) {
    return Status::DataLoss("bad frame magic 0x" + std::to_string(magic) +
                            " (not a SNGF stream)");
  }
  const uint8_t type = bytes[4];
  if (!IsKnownFrameType(type)) {
    return Status::DataLoss("unknown frame type " + std::to_string(type));
  }
  const uint8_t version = bytes[5];
  if (version != kProtocolVersion) {
    return Status::DataLoss("unsupported protocol version " +
                            std::to_string(version) + " (expected " +
                            std::to_string(kProtocolVersion) + ")");
  }
  const uint16_t reserved = ReadScalar<uint16_t>(bytes + 6);
  if (reserved != 0) {
    return Status::DataLoss("nonzero reserved header bits");
  }
  const uint32_t payload_len = ReadScalar<uint32_t>(bytes + 8);
  if (payload_len > kMaxFramePayload) {
    // Checked before the caller sizes any buffer by it: a hostile length
    // field must never turn into an allocation.
    return Status::DataLoss("frame payload claims " +
                            std::to_string(payload_len) +
                            " bytes, limit is " +
                            std::to_string(kMaxFramePayload));
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(type);
  header.payload_len = payload_len;
  return header;
}

// SearchRequest payload layout (40 fixed bytes + 4*dim):
//   u64 client_tag | u32 k | u32 queue_size | u64 deadline_us |
//   u64 cost_budget | u32 dim | u32 flags(=0) | f32 query[dim]
namespace {
constexpr size_t kSearchRequestFixedBytes = 40;
}  // namespace

void EncodeSearchRequest(const SearchRequestFrame& request,
                         std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  payload.reserve(kSearchRequestFixedBytes + 4 * request.query.size());
  AppendScalar<uint64_t>(&payload, request.client_tag);
  AppendScalar<uint32_t>(&payload, request.k);
  AppendScalar<uint32_t>(&payload, request.queue_size);
  AppendScalar<uint64_t>(&payload, request.deadline_us);
  AppendScalar<uint64_t>(&payload, request.cost_budget);
  AppendScalar<uint32_t>(&payload, static_cast<uint32_t>(request.query.size()));
  AppendScalar<uint32_t>(&payload, 0);  // flags
  const size_t offset = payload.size();
  payload.resize(offset + 4 * request.query.size());
  if (!request.query.empty()) {
    std::memcpy(payload.data() + offset, request.query.data(),
                4 * request.query.size());
  }
  AppendFrame(FrameType::kSearchRequest, payload.data(), payload.size(), out);
}

StatusOr<SearchRequestFrame> DecodeSearchRequest(const uint8_t* payload,
                                                 size_t len) {
  if (len < kSearchRequestFixedBytes) {
    return Status::DataLoss("search request truncated: " +
                            std::to_string(len) + " of " +
                            std::to_string(kSearchRequestFixedBytes) +
                            " fixed bytes");
  }
  SearchRequestFrame request;
  request.client_tag = ReadScalar<uint64_t>(payload);
  request.k = ReadScalar<uint32_t>(payload + 8);
  request.queue_size = ReadScalar<uint32_t>(payload + 12);
  request.deadline_us = ReadScalar<uint64_t>(payload + 16);
  request.cost_budget = ReadScalar<uint64_t>(payload + 24);
  const uint32_t dim = ReadScalar<uint32_t>(payload + 32);
  const uint32_t flags = ReadScalar<uint32_t>(payload + 36);
  if (flags != 0) {
    return Status::InvalidArgument("search request sets unknown flags 0x" +
                                   std::to_string(flags));
  }
  if (dim == 0) {
    return Status::InvalidArgument("search request query dim must be >= 1");
  }
  if (dim > kMaxQueryDim) {
    // Validate the claimed count against the bound (and below against the
    // actual byte count) before the vector resize, as the .sngd loader does.
    return Status::DataLoss("search request claims dim " +
                            std::to_string(dim) + ", limit is " +
                            std::to_string(kMaxQueryDim));
  }
  const size_t expected =
      kSearchRequestFixedBytes + 4 * static_cast<size_t>(dim);
  if (len != expected) {
    return Status::DataLoss("search request length mismatch: payload is " +
                            std::to_string(len) + " bytes, dim " +
                            std::to_string(dim) + " implies " +
                            std::to_string(expected));
  }
  request.query.resize(dim);
  std::memcpy(request.query.data(), payload + kSearchRequestFixedBytes,
              4 * static_cast<size_t>(dim));
  return request;
}

// SearchResponse payload layout (32 fixed bytes + msg + results):
//   u64 client_tag | i32 status_code | u8 degraded | u8 flags(=0) |
//   u16 reserved(=0) | f32 queue_us | f32 search_us | u32 msg_len |
//   u32 num_results | char msg[msg_len] | {u32 id, f32 dist}[num_results]
namespace {
constexpr size_t kSearchResponseFixedBytes = 32;
}  // namespace

void EncodeSearchResponse(const SearchResponseFrame& response,
                          std::vector<uint8_t>* out) {
  const uint32_t msg_len = static_cast<uint32_t>(
      std::min<size_t>(response.message.size(), kMaxResponseMessageBytes));
  std::vector<uint8_t> payload;
  payload.reserve(kSearchResponseFixedBytes + msg_len +
                  8 * response.results.size());
  AppendScalar<uint64_t>(&payload, response.client_tag);
  AppendScalar<int32_t>(&payload, response.status_code);
  AppendScalar<uint8_t>(&payload, response.degraded ? 1 : 0);
  AppendScalar<uint8_t>(&payload, 0);   // flags
  AppendScalar<uint16_t>(&payload, 0);  // reserved
  AppendScalar<float>(&payload, response.queue_us);
  AppendScalar<float>(&payload, response.search_us);
  AppendScalar<uint32_t>(&payload, msg_len);
  AppendScalar<uint32_t>(&payload,
                         static_cast<uint32_t>(response.results.size()));
  size_t offset = payload.size();
  payload.resize(offset + msg_len);
  if (msg_len > 0) {
    std::memcpy(payload.data() + offset, response.message.data(), msg_len);
  }
  offset = payload.size();
  payload.resize(offset + 8 * response.results.size());
  for (const Neighbor& n : response.results) {
    std::memcpy(payload.data() + offset, &n.id, 4);
    std::memcpy(payload.data() + offset + 4, &n.dist, 4);
    offset += 8;
  }
  AppendFrame(FrameType::kSearchResponse, payload.data(), payload.size(),
              out);
}

StatusOr<SearchResponseFrame> DecodeSearchResponse(const uint8_t* payload,
                                                   size_t len) {
  if (len < kSearchResponseFixedBytes) {
    return Status::DataLoss("search response truncated: " +
                            std::to_string(len) + " of " +
                            std::to_string(kSearchResponseFixedBytes) +
                            " fixed bytes");
  }
  SearchResponseFrame response;
  response.client_tag = ReadScalar<uint64_t>(payload);
  response.status_code = ReadScalar<int32_t>(payload + 8);
  response.degraded = payload[12] != 0;
  const uint8_t flags = payload[13];
  const uint16_t reserved = ReadScalar<uint16_t>(payload + 14);
  if (flags != 0 || reserved != 0) {
    return Status::DataLoss("search response sets reserved bits");
  }
  response.queue_us = ReadScalar<float>(payload + 16);
  response.search_us = ReadScalar<float>(payload + 20);
  const uint32_t msg_len = ReadScalar<uint32_t>(payload + 24);
  const uint32_t num_results = ReadScalar<uint32_t>(payload + 28);
  if (msg_len > kMaxResponseMessageBytes) {
    return Status::DataLoss("search response claims a " +
                            std::to_string(msg_len) + " byte message, " +
                            "limit is " +
                            std::to_string(kMaxResponseMessageBytes));
  }
  if (num_results > kMaxResponseResults) {
    return Status::DataLoss("search response claims " +
                            std::to_string(num_results) +
                            " results, limit is " +
                            std::to_string(kMaxResponseResults));
  }
  const size_t expected = kSearchResponseFixedBytes +
                          static_cast<size_t>(msg_len) +
                          8 * static_cast<size_t>(num_results);
  if (len != expected) {
    return Status::DataLoss("search response length mismatch: payload is " +
                            std::to_string(len) + " bytes, fields imply " +
                            std::to_string(expected));
  }
  response.message.assign(
      reinterpret_cast<const char*>(payload + kSearchResponseFixedBytes),
      msg_len);
  response.results.resize(num_results);
  const uint8_t* cursor = payload + kSearchResponseFixedBytes + msg_len;
  for (uint32_t i = 0; i < num_results; ++i) {
    std::memcpy(&response.results[i].id, cursor, 4);
    std::memcpy(&response.results[i].dist, cursor + 4, 4);
    cursor += 8;
  }
  return response;
}

Status FrameTransport::ReadFully(uint8_t* out, size_t len, bool* clean_eof) {
  *clean_eof = false;
  size_t done = 0;
  while (done < len) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, io_timeout_ms_ > 0 ? io_timeout_ms_ : -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(ErrnoMessage("poll(read)", errno));
    }
    if (rc == 0) {
      return Status::DeadlineExceeded(
          "slow client: no bytes for " + std::to_string(io_timeout_ms_) +
          " ms (" + std::to_string(done) + "/" + std::to_string(len) +
          " read)");
    }
    const ssize_t n = ::read(fd_, out + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(ErrnoMessage("read", errno));
    }
    if (n == 0) {
      *clean_eof = done == 0;
      return Status::DataLoss("connection closed mid-read: " +
                              std::to_string(done) + "/" +
                              std::to_string(len) + " bytes");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<Frame> FrameTransport::ReadFrame() {
  uint8_t header_bytes[kFrameHeaderBytes];
  bool clean_eof = false;
  Status s = ReadFully(header_bytes, kFrameHeaderBytes, &clean_eof);
  if (!s.ok()) {
    if (clean_eof) {
      // EOF exactly at a frame boundary: an orderly close, not corruption.
      return Status::Unavailable("connection closed");
    }
    return s;
  }
  StatusOr<FrameHeader> header =
      DecodeFrameHeader(header_bytes, kFrameHeaderBytes);
  SONG_RETURN_IF_ERROR(header.status());
  Frame frame;
  frame.type = header.value().type;
  frame.payload.resize(header.value().payload_len);
  if (header.value().payload_len > 0) {
    s = ReadFully(frame.payload.data(), frame.payload.size(), &clean_eof);
    if (!s.ok()) {
      if (clean_eof) {
        return Status::DataLoss("connection closed before the payload of a " +
                                std::to_string(frame.payload.size()) +
                                " byte frame");
      }
      return s;
    }
  }
  return frame;
}

Status FrameTransport::WriteBytes(const uint8_t* bytes, size_t len) {
  size_t done = 0;
  while (done < len) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, io_timeout_ms_ > 0 ? io_timeout_ms_ : -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(ErrnoMessage("poll(write)", errno));
    }
    if (rc == 0) {
      return Status::DeadlineExceeded(
          "slow client: write stalled for " +
          std::to_string(io_timeout_ms_) + " ms (" + std::to_string(done) +
          "/" + std::to_string(len) + " written)");
    }
    // MSG_NOSIGNAL: a peer that closed mid-stream must surface as EPIPE
    // here, never as a process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, bytes + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable("connection closed by peer during write");
      }
      return Status::Internal(ErrnoMessage("write", errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace song::serve
