// Length-prefixed frame protocol the fleet speaks over its coordinator <->
// worker pipes (docs/FLEET.md has the frame catalog and the topology).
//
// A frame is a fixed 20-byte little-endian header followed by an opaque
// payload:
//   u32 magic   'D''Q''F''L'
//   u16 type    FrameType
//   u16 flags   must be 0 (reserved)
//   u32 shard   shard id the frame concerns (0 when not shard-scoped)
//   u64 length  payload bytes that follow
// The decoder is incremental — feed() arbitrary chunks, next() yields
// complete frames — and treats every malformed header (bad magic, unknown
// type, nonzero flags, implausible length) as a classified `io` fault
// (FleetProtocolError, site "fleet.io.decode") WITHOUT consuming further
// input: a corrupted stream can never desynchronize into garbage frames or
// unbounded allocation, it fails fast and the coordinator disposes of the
// peer. The protocol torture test fuzzes exactly this surface.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/error.h"
#include "fault/failpoint.h"

namespace dqmc::fleet {

enum class FrameType : std::uint16_t {
  kHello = 1,     ///< worker -> coordinator: ready (payload: worker index)
  kAssign = 2,    ///< coordinator -> worker: run a shard (ShardState)
  kResult = 3,    ///< worker -> coordinator: finished shard (ShardState)
  kSnapshot = 4,  ///< worker -> coordinator: chain resume state
  // 5 and 6 are retired (they carried work stealing): invalid on the wire.
  kProgress = 7,  ///< worker -> coordinator: sweeps committed so far
  kShutdown = 8,  ///< coordinator -> worker: exit cleanly
  kFail = 9,      ///< worker -> coordinator: shard failed terminally
  // 10 is retired (it announced worker artifact paths): invalid too.
};

const char* frame_type_name(FrameType t);

/// Magic bytes "DQFL" as the little-endian u32 the header stores.
inline constexpr std::uint32_t kWireMagic = 0x4c465144u;
/// Header size on the wire.
inline constexpr std::size_t kWireHeaderSize = 20;
/// Decoder refuses payloads above this (a plausible shard snapshot is a few
/// MiB; anything near the cap is a corrupted length field).
inline constexpr std::uint64_t kWireMaxPayload = 1ull << 30;

/// Malformed traffic, classified as an `io` fault for the recovery ladder.
class FleetProtocolError : public Error {
 public:
  explicit FleetProtocolError(const std::string& what)
      : Error("fleet.io.decode: " + what) {}
  static const char* site() { return "fleet.io.decode"; }
  static fault::FaultClass fault_class() { return fault::FaultClass::kIoError; }
};

struct Frame {
  FrameType type = FrameType::kHello;
  std::uint32_t shard = 0;
  std::string payload;
};

/// Serialize one frame (header + payload) to raw bytes.
std::string encode_frame(FrameType type, std::uint32_t shard,
                         const std::string& payload);

/// Incremental decoder: feed() bytes as they arrive, next() yields frames.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }
  void feed(const std::string& bytes) { buffer_ += bytes; }

  /// The next complete frame, or nullopt when more bytes are needed.
  /// Throws FleetProtocolError on a malformed header; the decoder is then
  /// poisoned (every later call rethrows) — a corrupted peer is disposed
  /// of, never resynchronized.
  std::optional<Frame> next();

  /// Bytes of an incomplete frame are pending — EOF here means the peer
  /// died mid-frame (truncation), not a clean close.
  bool mid_frame() const { return !buffer_.empty(); }

 private:
  std::string buffer_;
  bool poisoned_ = false;
};

/// Write the whole frame to `fd`, retrying on EINTR and short writes.
/// Throws FleetProtocolError on a closed/failed pipe. Fail point
/// "fleet.io.send" fires before the write.
void write_frame(int fd, FrameType type, std::uint32_t shard,
                 const std::string& payload);

/// Read whatever is available on `fd` (one read(2) call) into the decoder.
/// Returns false on EOF, true otherwise. Throws FleetProtocolError on a
/// read error. Fail point "fleet.io.recv" fires before the read.
bool read_into(int fd, FrameDecoder& decoder);

}  // namespace dqmc::fleet
