// Checkpointing: serialize the Markov chain state (HS field + RNG + sign +
// the direction of the next sweep) at a sweep boundary, so long runs — the
// paper's production simulations take 36 hours — can be interrupted and
// resumed bit-exactly. A sweep boundary is the only resume point: loading
// resume()s the engine, whose boundary stacks and G are re-derived from the
// field for a sweep in the recorded direction, which is exact there (a
// stack rebuilt from scratch is bitwise the one the sweeps carried). A
// chain saved after an up sweep continues with a down sweep.
//
// The format (v3) is small self-describing text, deterministic and
// platform-independent: a header (version, dimensions, the four xoshiro
// words, the sign, the direction `up` or `down`) and one row of +/- per
// slice. Files of earlier versions (v1 had no direction; v2 also held a
// mid-sweep G) are rejected.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "dqmc/engine.h"

namespace dqmc::core {

/// Serialize the engine's Markov state at a sweep boundary (v3). Does NOT
/// record the model/lattice configuration — the loader must construct an
/// engine with the same parameters (a mismatch in dimensions is detected
/// and throws). Fail point: "checkpoint.save".
void save_checkpoint(std::ostream& out, DqmcEngine& engine);
void save_checkpoint_file(const std::string& path, DqmcEngine& engine);

/// Parse a v3 checkpoint for an engine of `slices` x `sites` without
/// loading it. Throws InputError naming what is wrong: a missing or other
/// magic or version, truncation, a dimension mismatch, a malformed number,
/// direction or field row, data after the field, or the all-zero RNG state
/// (xoshiro's fixed point).
void check_checkpoint(std::istream& in, idx slices, idx sites);

/// Restore a v3 checkpoint into `engine` (same lattice and slice count
/// required) and resume() it, after which sweeps continue the original
/// trajectory bit-exactly. Throws like check_checkpoint, before touching
/// the engine, and when the recorded sign does not match the field's.
/// Fail point: "checkpoint.load".
void load_checkpoint(std::istream& in, DqmcEngine& engine);
void load_checkpoint_file(const std::string& path, DqmcEngine& engine);

/// Order-sensitive FNV-1a digest of the engine's Markov state: field, RNG
/// state, sign, and both flushed Green's functions (bit patterns). Two
/// engines on the same trajectory agree; any divergence — field flip, RNG
/// draw, one ULP in G — changes it. Recorded in the run manifest and the
/// golden regression fixtures.
std::uint64_t trajectory_hash(DqmcEngine& engine);

}  // namespace dqmc::core
