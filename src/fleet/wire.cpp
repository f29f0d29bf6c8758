#include "fleet/wire.h"

#include <cerrno>
#include <cstring>
#include <unistd.h>

namespace dqmc::fleet {

namespace {

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_le(const std::string& in, std::size_t at, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(in[at + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

bool valid_type(std::uint16_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kHello:
    case FrameType::kAssign:
    case FrameType::kResult:
    case FrameType::kSnapshot:
    case FrameType::kProgress:
    case FrameType::kShutdown:
    case FrameType::kFail:
      return true;
  }
  return false;
}

}  // namespace

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kAssign: return "assign";
    case FrameType::kResult: return "result";
    case FrameType::kSnapshot: return "snapshot";
    case FrameType::kProgress: return "progress";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kFail: return "fail";
  }
  return "unknown";
}

std::string encode_frame(FrameType type, std::uint32_t shard,
                         const std::string& payload) {
  std::string out;
  out.reserve(kWireHeaderSize + payload.size());
  put_le(out, kWireMagic, 4);
  put_le(out, static_cast<std::uint16_t>(type), 2);
  put_le(out, 0, 2);  // flags, reserved
  put_le(out, shard, 4);
  put_le(out, payload.size(), 8);
  out += payload;
  return out;
}

std::optional<Frame> FrameDecoder::next() {
  if (poisoned_) throw FleetProtocolError("decoder poisoned by earlier fault");
  if (buffer_.size() < kWireHeaderSize) return std::nullopt;

  const std::uint32_t magic =
      static_cast<std::uint32_t>(get_le(buffer_, 0, 4));
  const std::uint16_t type = static_cast<std::uint16_t>(get_le(buffer_, 4, 2));
  const std::uint16_t flags = static_cast<std::uint16_t>(get_le(buffer_, 6, 2));
  const std::uint32_t shard =
      static_cast<std::uint32_t>(get_le(buffer_, 8, 4));
  const std::uint64_t length = get_le(buffer_, 12, 8);

  // Validate BEFORE waiting for the payload: a corrupt length field must
  // fail here, not stall the connection (or balloon the buffer) forever.
  if (magic != kWireMagic) {
    poisoned_ = true;
    throw FleetProtocolError("bad magic");
  }
  if (!valid_type(type)) {
    poisoned_ = true;
    throw FleetProtocolError("unknown frame type " + std::to_string(type));
  }
  if (flags != 0) {
    poisoned_ = true;
    throw FleetProtocolError("nonzero reserved flags");
  }
  if (length > kWireMaxPayload) {
    poisoned_ = true;
    throw FleetProtocolError("implausible payload length " +
                             std::to_string(length));
  }

  if (buffer_.size() < kWireHeaderSize + length) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.shard = shard;
  frame.payload = buffer_.substr(kWireHeaderSize,
                                 static_cast<std::size_t>(length));
  buffer_.erase(0, kWireHeaderSize + static_cast<std::size_t>(length));
  return frame;
}

void write_frame(int fd, FrameType type, std::uint32_t shard,
                 const std::string& payload) {
  DQMC_FAILPOINT("fleet.io.send");
  const std::string bytes = encode_frame(type, shard, payload);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw FleetProtocolError(std::string("write failed: ") +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

bool read_into(int fd, FrameDecoder& decoder) {
  DQMC_FAILPOINT("fleet.io.recv");
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw FleetProtocolError(std::string("read failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) return false;
    decoder.feed(buf, static_cast<std::size_t>(n));
    return true;
  }
}

}  // namespace dqmc::fleet
