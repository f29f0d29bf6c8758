#include "dqmc/checkpoint.h"

#include <bit>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>

#include "fault/failpoint.h"

namespace dqmc::core {

namespace {

constexpr const char* kMagic = "dqmcpp-checkpoint";

/// The Markov state a checkpoint records.
struct Saved {
  std::uint64_t rng[4] = {};
  int sign = 0;
  SweepDirection direction = SweepDirection::kUp;
  HSField field;
};

/// The next whitespace-separated token. The stream is checked after every
/// read, so a truncated file fails at its first missing token.
std::string next_token(std::istream& in, const std::string& what) {
  std::string token;
  in >> token;
  DQMC_CHECK_INPUT(in, "malformed checkpoint (" + what + ")");
  return token;
}

/// The next token as a whole decimal number, with a sign only where T is
/// signed (operator>> would read "-1" into an unsigned word).
template <class T>
T next_number(std::istream& in, const std::string& what) {
  const std::string token = next_token(in, what);
  const char* end = token.data() + token.size();
  T value{};
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  DQMC_CHECK_INPUT(ec == std::errc() && stop == end,
                   "malformed checkpoint (" + what + ")");
  return value;
}

void expect_key(std::istream& in, const std::string& key) {
  DQMC_CHECK_INPUT(next_token(in, key) == key,
                   "malformed checkpoint (" + key + ")");
}

/// Parse a v3 checkpoint for `slices` x `sites`.
Saved parse(std::istream& in, idx slices, idx sites) {
  std::string magic, version;
  in >> magic >> version;
  DQMC_CHECK_INPUT(in && magic == kMagic, "not a dqmcpp checkpoint");
  DQMC_CHECK_INPUT(version == "v3", "unsupported checkpoint version " +
                                        version + " (only v3 is read)");
  expect_key(in, "slices");
  const idx file_slices = next_number<idx>(in, "slices");
  expect_key(in, "sites");
  const idx file_sites = next_number<idx>(in, "sites");
  DQMC_CHECK_INPUT(file_slices == slices && file_sites == sites,
                   "checkpoint dimensions do not match the engine");

  Saved saved{.field = HSField(slices, sites)};
  expect_key(in, "rng");
  for (std::uint64_t& word : saved.rng) {
    word = next_number<std::uint64_t>(in, "rng");
  }
  // xoshiro's all-zero state is a fixed point: the generator would return
  // 0 forever and accept every proposal.
  const std::uint64_t* s = saved.rng;
  DQMC_CHECK_INPUT((s[0] | s[1] | s[2] | s[3]) != 0,
                   "checkpoint rng state is all zero");

  expect_key(in, "sign");
  saved.sign = next_number<int>(in, "sign");
  DQMC_CHECK_INPUT(saved.sign == 1 || saved.sign == -1,
                   "malformed checkpoint (sign)");

  expect_key(in, "direction");
  const std::string direction = next_token(in, "direction");
  DQMC_CHECK_INPUT(direction == "up" || direction == "down",
                   "malformed checkpoint (direction)");
  saved.direction =
      direction == "up" ? SweepDirection::kUp : SweepDirection::kDown;

  expect_key(in, "field");
  for (idx l = 0; l < slices; ++l) {
    const std::string what = "field row " + std::to_string(l);
    const std::string row = next_token(in, what);
    DQMC_CHECK_INPUT(static_cast<idx>(row.size()) == sites,
                     "malformed checkpoint (" + what + ")");
    for (idx i = 0; i < sites; ++i) {
      const char c = row[static_cast<std::size_t>(i)];
      DQMC_CHECK_INPUT(c == '+' || c == '-',
                       "malformed checkpoint (" + what + ")");
      saved.field.set(l, i, c == '+' ? hubbard::hs_t{1} : hubbard::hs_t{-1});
    }
  }
  in >> std::ws;
  DQMC_CHECK_INPUT(in.peek() == std::char_traits<char>::eof(),
                   "malformed checkpoint (data after the field)");
  return saved;
}

}  // namespace

void save_checkpoint(std::ostream& out, DqmcEngine& engine) {
  DQMC_FAILPOINT("checkpoint.save");
  out << kMagic << " v3\n";
  out << "slices " << engine.slices() << "\n";
  out << "sites " << engine.n() << "\n";
  std::uint64_t s[4];
  engine.rng().state(s);
  out << "rng " << s[0] << " " << s[1] << " " << s[2] << " " << s[3] << "\n";
  out << "sign " << engine.config_sign() << "\n";
  out << "direction " << sweep_direction_name(engine.direction()) << "\n";
  out << "field\n";
  const HSField& field = engine.field();
  for (idx l = 0; l < field.slices(); ++l) {
    for (idx i = 0; i < field.sites(); ++i) {
      out << (field(l, i) > 0 ? '+' : '-');
    }
    out << "\n";
  }
  DQMC_CHECK_MSG(out.good(), "checkpoint write failed");
}

void save_checkpoint_file(const std::string& path, DqmcEngine& engine) {
  std::ofstream out(path);
  DQMC_CHECK_MSG(out.good(), "cannot open checkpoint for writing: " + path);
  save_checkpoint(out, engine);
}

void check_checkpoint(std::istream& in, idx slices, idx sites) {
  parse(in, slices, sites);
}

void load_checkpoint(std::istream& in, DqmcEngine& engine) {
  DQMC_FAILPOINT("checkpoint.load");
  Saved saved = parse(in, engine.slices(), engine.n());
  engine.field() = std::move(saved.field);
  engine.rng().set_state(saved.rng);
  engine.resume(saved.direction);
  // resume() recomputes the sign from the field; it must agree with the
  // recorded one (a mismatch indicates corruption).
  DQMC_CHECK_INPUT(engine.config_sign() == saved.sign,
                   "checkpoint sign does not match its field");
}

void load_checkpoint_file(const std::string& path, DqmcEngine& engine) {
  std::ifstream in(path);
  DQMC_CHECK_INPUT(in.good(), "cannot open checkpoint " + path);
  load_checkpoint(in, engine);
}

std::uint64_t trajectory_hash(DqmcEngine& engine) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;  // FNV prime
    }
  };
  const HSField& field = engine.field();
  for (idx l = 0; l < field.slices(); ++l) {
    for (idx i = 0; i < field.sites(); ++i) {
      mix(field(l, i) > 0 ? 1u : 0u);
    }
  }
  std::uint64_t s[4];
  engine.rng().state(s);
  for (const std::uint64_t w : s) mix(w);
  mix(engine.config_sign() > 0 ? 1u : 0u);
  for (const Spin spin : hubbard::kSpins) {
    const linalg::Matrix& g = engine.greens(spin);
    const double* p = g.data();
    const idx total = g.rows() * g.cols();
    for (idx i = 0; i < total; ++i) mix(std::bit_cast<std::uint64_t>(p[i]));
  }
  return h;
}

}  // namespace dqmc::core
