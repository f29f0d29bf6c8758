// Checkpoint loader against a corpus of damaged files: every byte prefix
// of a valid v3 checkpoint and single-byte changes at every offset. A
// damaged file throws a classified dqmc::Error, or loads faithfully: the
// original trajectory when only whitespace changed, another state when a
// digit or a field sign did. It never crashes, reads past its data, or
// loads xoshiro's all-zero state.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "dqmc/checkpoint.h"
#include "dqmc/engine.h"

namespace dqmc::core {
namespace {

using hubbard::Lattice;
using hubbard::ModelParams;

ModelParams params() {
  ModelParams p;
  p.u = 4.0;
  p.beta = 2.0;
  p.slices = 8;
  return p;
}

EngineConfig config() {
  EngineConfig c;
  c.cluster_size = 4;
  return c;
}

/// A valid checkpoint of a 2x2 chain after two sweeps.
std::string valid_blob() {
  DqmcEngine engine(Lattice(2, 2), params(), config(), 20261019);
  engine.initialize();
  engine.sweep();
  engine.sweep();
  std::ostringstream out;
  save_checkpoint(out, engine);
  return out.str();
}

/// Load `text` into a fresh engine: its trajectory hash, or nullopt when
/// the loader threw a dqmc::Error. A load never yields the zero RNG state.
std::optional<std::uint64_t> load(const std::string& text) {
  DqmcEngine engine(Lattice(2, 2), params(), config(), 0);
  std::istringstream in(text);
  try {
    load_checkpoint(in, engine);
  } catch (const Error&) {
    return std::nullopt;
  }
  std::uint64_t s[4];
  engine.rng().state(s);
  EXPECT_NE(s[0] | s[1] | s[2] | s[3], 0u) << "loaded the zero RNG state";
  return trajectory_hash(engine);
}

char flip(char c, unsigned mask) {
  return static_cast<char>(static_cast<unsigned char>(c) ^ mask);
}

bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\v' || c == '\f' ||
         c == '\r';
}

TEST(CheckpointCorpus, EveryPrefixThrowsOrLoadsTheOriginal) {
  const std::string blob = valid_blob();
  const std::optional<std::uint64_t> original = load(blob);
  ASSERT_TRUE(original.has_value());
  std::size_t loaded = 0;
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    const std::optional<std::uint64_t> got = load(blob.substr(0, cut));
    if (!got) continue;
    ++loaded;
    EXPECT_EQ(*got, *original) << "prefix of " << cut << " bytes";
  }
  // Only the cut that drops the final newline still holds every token.
  EXPECT_EQ(loaded, 1u);
}

// A flip of bit 7 or bit 6 turns every byte of the text format into one no
// token may hold (non-ASCII, or letters <-> digits and punctuation), so
// every such file must be rejected. A flip of bit 0, or a byte overwritten
// with '-', can also turn one digit into another or '+' into '-': the format
// has no checksum, so that file is a well-formed checkpoint of another
// state and may load — but only a change between two whitespace bytes may
// load the original trajectory unchanged.
TEST(CheckpointCorpus, EverySingleByteChangeThrowsOrLoadsFaithfully) {
  const std::string blob = valid_blob();
  const std::optional<std::uint64_t> original = load(blob);
  ASSERT_TRUE(original.has_value());
  struct Change {
    const char* name;
    char (*apply)(char);
    bool must_throw;
  };
  const Change changes[] = {
      {"flip bit 7", [](char c) { return flip(c, 0x80u); }, true},
      {"flip bit 6", [](char c) { return flip(c, 0x40u); }, true},
      {"flip bit 0", [](char c) { return flip(c, 0x01u); }, false},
      {"write '-'", [](char) { return '-'; }, false},
  };
  for (const Change& change : changes) {
    for (std::size_t at = 0; at < blob.size(); ++at) {
      std::string text = blob;
      text[at] = change.apply(text[at]);
      if (text == blob) continue;
      const std::optional<std::uint64_t> got = load(text);
      if (!got) continue;
      SCOPED_TRACE(::testing::Message() << change.name << " at byte " << at);
      if (change.must_throw) {
        ADD_FAILURE() << "a file no tokenizer can read loaded";
      } else if (is_space(blob[at]) && is_space(text[at])) {
        EXPECT_EQ(*got, *original);
      } else {
        EXPECT_NE(*got, *original);
      }
    }
  }
}

// Text no save writes is rejected: a negative RNG word (operator>> would
// wrap it into an unsigned one), a sign with a '+', data after the field.
TEST(CheckpointCorpus, NonCanonicalTextIsRejected) {
  const std::string blob = valid_blob();
  const std::size_t rng = blob.find("rng ") + 4;
  const std::size_t sign = blob.find("sign ") + 5;
  const std::string cases[] = {
      blob.substr(0, rng) + "-1" + blob.substr(blob.find(' ', rng)),
      blob.substr(0, sign) + "+" + blob.substr(sign),
      blob + "++++\n",
      blob + "junk",
  };
  for (const std::string& text : cases) {
    EXPECT_FALSE(load(text).has_value()) << text;
  }
}

TEST(CheckpointCorpus, ZeroRngStateIsRejected) {
  std::string text = valid_blob();
  const std::size_t begin = text.find("rng ");
  const std::size_t end = text.find('\n', begin);
  ASSERT_NE(begin, std::string::npos);
  text.replace(begin, end - begin, "rng 0 0 0 0");
  DqmcEngine engine(Lattice(2, 2), params(), config(), 0);
  std::istringstream in(text);
  try {
    load_checkpoint(in, engine);
    ADD_FAILURE() << "the zero RNG state loaded";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("rng"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointCorpus, OtherVersionsAreRejectedByName) {
  std::string text = valid_blob();
  ASSERT_EQ(text.rfind("dqmcpp-checkpoint v3\n", 0), 0u);
  for (const char* version : {"v1", "v2", "v10"}) {
    text.replace(text.find(' ') + 1, text.find('\n') - text.find(' ') - 1,
                 version);
    DqmcEngine engine(Lattice(2, 2), params(), config(), 0);
    std::istringstream in(text);
    try {
      load_checkpoint(in, engine);
      ADD_FAILURE() << version << " loaded";
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find(version), std::string::npos)
          << e.what();
    }
  }
}

// The direction of the next sweep is part of the Markov state: a file
// without it, or with anything but "up" or "down", is an input error naming
// it; a saved direction is the one the loaded engine sweeps next.
TEST(CheckpointCorpus, MissingOrGarbledDirectionIsAnInputError) {
  const std::string blob = valid_blob();
  const std::size_t begin = blob.find("direction ");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = blob.find('\n', begin) + 1;
  const std::string cases[] = {
      blob.substr(0, begin) + blob.substr(end),
      blob.substr(0, begin) + "direction sideways\n" + blob.substr(end),
      blob.substr(0, begin) + "direction 1\n" + blob.substr(end),
      blob.substr(0, begin) + "direction\n" + blob.substr(end),
      blob.substr(0, begin) + "dir up\n" + blob.substr(end),
  };
  for (const std::string& text : cases) {
    DqmcEngine engine(Lattice(2, 2), params(), config(), 0);
    std::istringstream in(text);
    try {
      load_checkpoint(in, engine);
      ADD_FAILURE() << "loaded:\n" << text;
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find("direction"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckpointCorpus, TheSavedDirectionIsTheNextSweeps) {
  for (const int sweeps : {1, 2}) {
    DqmcEngine engine(Lattice(2, 2), params(), config(), 20261019);
    engine.initialize();
    for (int i = 0; i < sweeps; ++i) engine.sweep();
    std::stringstream blob;
    save_checkpoint(blob, engine);
    const SweepDirection next =
        sweeps == 1 ? SweepDirection::kDown : SweepDirection::kUp;
    EXPECT_NE(blob.str().find(std::string("direction ") +
                              sweep_direction_name(next) + "\n"),
              std::string::npos);
    DqmcEngine loaded(Lattice(2, 2), params(), config(), 0);
    load_checkpoint(blob, loaded);
    EXPECT_EQ(loaded.direction(), next);
  }
}

}  // namespace
}  // namespace dqmc::core
