// Fleet wire-protocol tests: frame round trips through the incremental
// decoder, strict header validation, pipe-backed I/O, and the protocol
// torture pass — deterministic fuzz of truncated / corrupted / reordered
// byte streams, which must always end in a classified io fault or a clean
// "need more bytes", never a hang, desync, or unbounded allocation.
// `ctest --preset asan -L fleet` runs this same binary under
// AddressSanitizer.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <string>
#include <vector>

#include "fleet/wire.h"
#include "fleet/worker.h"

namespace dqmc::fleet {
namespace {

Frame expect_one(FrameDecoder& dec) {
  std::optional<Frame> f = dec.next();
  EXPECT_TRUE(f.has_value());
  return f.value_or(Frame{});
}

TEST(Wire, RoundTripSingleFrame) {
  FrameDecoder dec;
  dec.feed(encode_frame(FrameType::kAssign, 7, "payload-bytes"));
  const Frame f = expect_one(dec);
  EXPECT_EQ(f.type, FrameType::kAssign);
  EXPECT_EQ(f.shard, 7u);
  EXPECT_EQ(f.payload, "payload-bytes");
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.mid_frame());
}

TEST(Wire, EmptyPayloadAndBinaryPayload) {
  FrameDecoder dec;
  std::string binary(256, '\0');
  for (int i = 0; i < 256; ++i) binary[static_cast<std::size_t>(i)] =
      static_cast<char>(i);
  dec.feed(encode_frame(FrameType::kShutdown, 0, ""));
  dec.feed(encode_frame(FrameType::kResult, 3, binary));
  EXPECT_EQ(expect_one(dec).type, FrameType::kShutdown);
  const Frame f = expect_one(dec);
  EXPECT_EQ(f.payload, binary);
}

TEST(Wire, ByteAtATimeFeedYieldsTheSameFrames) {
  const std::string wire = encode_frame(FrameType::kProgress, 1, "aaa") +
                           encode_frame(FrameType::kSnapshot, 2, "bbbb");
  FrameDecoder dec;
  std::vector<Frame> frames;
  for (char c : wire) {
    dec.feed(&c, 1);
    while (auto f = dec.next()) frames.push_back(*f);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kProgress);
  EXPECT_EQ(frames[0].payload, "aaa");
  EXPECT_EQ(frames[1].type, FrameType::kSnapshot);
  EXPECT_EQ(frames[1].shard, 2u);
}

TEST(Wire, MidFrameReportsTruncation) {
  FrameDecoder dec;
  const std::string wire = encode_frame(FrameType::kResult, 0, "0123456789");
  dec.feed(wire.substr(0, wire.size() - 3));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.mid_frame());  // EOF now would be a truncated stream
  dec.feed(wire.substr(wire.size() - 3));
  EXPECT_TRUE(dec.next().has_value());
  EXPECT_FALSE(dec.mid_frame());
}

TEST(Wire, BadMagicThrowsAndPoisons) {
  FrameDecoder dec;
  std::string wire = encode_frame(FrameType::kHello, 0, "x");
  wire[0] = 'Z';
  dec.feed(wire);
  EXPECT_THROW(dec.next(), FleetProtocolError);
  // Poisoned: even valid bytes afterwards keep throwing — a corrupted peer
  // is never resynchronized.
  dec.feed(encode_frame(FrameType::kHello, 0, "y"));
  EXPECT_THROW(dec.next(), FleetProtocolError);
}

TEST(Wire, UnknownTypeNonzeroFlagsAndOversizeLengthThrow) {
  {
    FrameDecoder dec;
    std::string wire = encode_frame(FrameType::kHello, 0, "");
    wire[4] = 99;  // type LSB
    dec.feed(wire);
    EXPECT_THROW(dec.next(), FleetProtocolError);
  }
  {
    FrameDecoder dec;
    std::string wire = encode_frame(FrameType::kHello, 0, "");
    wire[6] = 1;  // reserved flags
    dec.feed(wire);
    EXPECT_THROW(dec.next(), FleetProtocolError);
  }
  {
    FrameDecoder dec;
    std::string wire = encode_frame(FrameType::kHello, 0, "");
    wire[19] = 0x7f;  // length MSB: ~2^63 bytes "pending"
    dec.feed(wire);
    // Must throw on the HEADER, without waiting for (or allocating) the
    // implausible payload.
    EXPECT_THROW(dec.next(), FleetProtocolError);
  }
}

/// A stream from a worker that sends retired frame type `type` after a
/// valid progress frame: the decoder yields the progress frame, then fails
/// with the io-class decode fault on which the coordinator disposes of the
/// worker and reassigns its chain, and stays poisoned.
void expect_retired_type_is_a_protocol_fault(std::uint16_t type) {
  std::string retired = encode_frame(FrameType::kProgress, 0, "");
  retired[4] = static_cast<char>(type);  // type LSB
  FrameDecoder dec;
  dec.feed(encode_frame(FrameType::kProgress, 0, "1") + retired);
  EXPECT_EQ(expect_one(dec).type, FrameType::kProgress);
  try {
    dec.next();
    ADD_FAILURE() << "frame type " << type << " was accepted";
  } catch (const FleetProtocolError& e) {
    EXPECT_STREQ(FleetProtocolError::site(), "fleet.io.decode");
    EXPECT_EQ(FleetProtocolError::fault_class(), fault::FaultClass::kIoError);
    EXPECT_NE(std::string(e.what()).find("unknown frame type " +
                                         std::to_string(type)),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(dec.next(), FleetProtocolError);
}

TEST(Wire, RetiredStealFrameTypeIsAProtocolFault) {
  expect_retired_type_is_a_protocol_fault(5);
}

TEST(Wire, RetiredYieldFrameTypeIsAProtocolFault) {
  expect_retired_type_is_a_protocol_fault(6);
}

TEST(Wire, RetiredTelemetryFrameTypeIsAProtocolFault) {
  expect_retired_type_is_a_protocol_fault(10);
}

TEST(Wire, HeaderValidatedBeforePayloadArrives) {
  FrameDecoder dec;
  std::string header = encode_frame(FrameType::kHello, 0, "zzzz");
  header.resize(kWireHeaderSize);
  header[0] = 'Z';
  dec.feed(header);  // corrupted header, payload never sent
  EXPECT_THROW(dec.next(), FleetProtocolError);
}

TEST(Wire, WriteAndReadThroughARealPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  write_frame(fds[1], FrameType::kSnapshot, 5, "resume");
  FrameDecoder dec;
  ASSERT_TRUE(read_into(fds[0], dec));
  const Frame f = expect_one(dec);
  EXPECT_EQ(f.type, FrameType::kSnapshot);
  EXPECT_EQ(f.shard, 5u);
  EXPECT_EQ(f.payload, "resume");
  ::close(fds[1]);
  EXPECT_FALSE(read_into(fds[0], dec));  // clean EOF
  ::close(fds[0]);
}

TEST(Wire, WriteToClosedPipeThrowsProtocolError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  // SIGPIPE must not kill the test; write_frame reports EPIPE instead.
  ::signal(SIGPIPE, SIG_IGN);
  EXPECT_THROW(write_frame(fds[1], FrameType::kHello, 0, "x"),
               FleetProtocolError);
  ::close(fds[1]);
}

// --- protocol torture -----------------------------------------------------
//
// Deterministic splitmix-style generator: no <random>, no global state, the
// same byte storm every run on every platform.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    s_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }

 private:
  std::uint64_t s_;
};

std::string random_valid_frame(Lcg& rng) {
  const FrameType types[] = {FrameType::kHello,    FrameType::kAssign,
                             FrameType::kResult,   FrameType::kSnapshot,
                             FrameType::kProgress, FrameType::kShutdown,
                             FrameType::kFail};
  std::string payload(rng.below(64), '\0');
  for (char& c : payload) c = static_cast<char>(rng.below(256));
  return encode_frame(types[rng.below(7)], rng.below(16), payload);
}

/// Feed `wire` in random chunk sizes; count frames until exhaustion or a
/// protocol fault. The invariant under ANY input: next() either yields a
/// frame, asks for more bytes, or throws FleetProtocolError — and once it
/// throws, it always throws.
void drive(const std::string& wire, Lcg& rng, std::uint64_t* frames,
           std::uint64_t* faults) {
  FrameDecoder dec;
  std::size_t off = 0;
  bool poisoned = false;
  while (off < wire.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.below(37), wire.size() - off);
    dec.feed(wire.data() + off, n);
    off += n;
    try {
      while (dec.next()) ++*frames;
      if (poisoned) FAIL() << "decoder resurrected after a protocol fault";
    } catch (const FleetProtocolError&) {
      if (!poisoned) ++*faults;
      poisoned = true;
    }
  }
}

TEST(WireTorture, TruncatedReorderedAndCorruptedStreams) {
  Lcg rng(2026);
  std::uint64_t frames = 0, faults = 0;
  for (int round = 0; round < 400; ++round) {
    // A run of valid frames...
    std::string wire;
    const int n_frames = 1 + static_cast<int>(rng.below(5));
    for (int i = 0; i < n_frames; ++i) wire += random_valid_frame(rng);
    switch (rng.below(4)) {
      case 0:  // truncate mid-frame
        wire.resize(rng.below(static_cast<std::uint32_t>(wire.size())) + 1);
        break;
      case 1: {  // flip bytes
        const int flips = 1 + static_cast<int>(rng.below(4));
        for (int i = 0; i < flips; ++i) {
          wire[rng.below(static_cast<std::uint32_t>(wire.size()))] =
              static_cast<char>(rng.below(256));
        }
        break;
      }
      case 2: {  // splice two frames mid-header ("reordered" pipe chunks)
        const std::string extra = random_valid_frame(rng);
        const std::size_t cut = rng.below(kWireHeaderSize);
        wire = wire.substr(0, cut) + extra + wire.substr(cut);
        break;
      }
      default:  // pure garbage storm
        wire.assign(rng.below(256) + 1, '\0');
        for (char& c : wire) c = static_cast<char>(rng.below(256));
        break;
    }
    drive(wire, rng, &frames, &faults);
  }
  // The storm must exercise BOTH outcomes, or the fuzz is vacuous.
  EXPECT_GT(frames, 100u);
  EXPECT_GT(faults, 100u);
}

TEST(WireTorture, PureGarbageNeverAllocatesUnbounded) {
  Lcg rng(7);
  for (int round = 0; round < 64; ++round) {
    FrameDecoder dec;
    std::string junk(kWireHeaderSize, '\0');
    for (char& c : junk) c = static_cast<char>(rng.below(256));
    dec.feed(junk);
    try {
      while (dec.next()) {
      }
      // A full random header happening to be valid is possible but
      // astronomically unlikely (magic must match); both outcomes are fine.
    } catch (const FleetProtocolError&) {
    }
  }
}

// --- worker-unique crash-dump paths (the worker dumps there, and the
// coordinator names the same path in its worker table) -------------------
TEST(WorkerPaths, InsertsTagBeforeKnownExtensions) {
  EXPECT_EQ(worker_unique_path("dump.json", 3, 4242),
            "dump.w3.p4242.json");
  EXPECT_EQ(worker_unique_path("telemetry.jsonl", 0, 1),
            "telemetry.w0.p1.jsonl");
  EXPECT_EQ(worker_unique_path("/tmp/a/b.json", 12, 99),
            "/tmp/a/b.w12.p99.json");
}

TEST(WorkerPaths, AppendsWhenNoKnownExtension) {
  EXPECT_EQ(worker_unique_path("dump.bin", 1, 2), "dump.bin.w1.p2");
  EXPECT_EQ(worker_unique_path("dump", 1, 2), "dump.w1.p2");
}

TEST(WorkerPaths, DistinctWorkersNeverCollide) {
  EXPECT_NE(worker_unique_path("d.json", 0, 10),
            worker_unique_path("d.json", 1, 10));
  EXPECT_NE(worker_unique_path("d.json", 0, 10),
            worker_unique_path("d.json", 0, 11));
}

}  // namespace
}  // namespace dqmc::fleet
