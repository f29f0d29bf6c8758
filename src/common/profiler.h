// Phase profiler used to regenerate Table I of the paper.
//
// The DQMC driver brackets each pipeline phase (delayed update,
// stratification, clustering, wrapping, measurements) with ScopedPhase; the
// accumulated wall time per phase is then reported as a percentage of the
// total, exactly the quantity Table I tabulates.
//
// ScopedPhase is the only timer of a phase. It reads the clock once when it
// opens and once when it closes; the profiler's bill, the trace span and any
// rate derived from the bracket (close() returns its seconds) all come from
// those two reads. A bracket may bill several calls: the engine brackets a
// phase once around both spins' work and bills one call per spin.
//
// Phases may nest (e.g. a delayed-update flush inside the Metropolis span):
// the profiler keeps a phase stack and bills each phase both INCLUSIVE time
// (its whole bracket) and EXCLUSIVE time (bracket minus nested brackets), so
// nested spans are never double counted in the totals. seconds()/percent()
// report exclusive time. A profiler is billed from one thread only, so the
// exclusive times of one chain sum to at most the chain's wall time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dqmc {

/// The pipeline phases distinguished by Table I of the paper.
enum class Phase : int {
  kDelayedUpdate = 0,  ///< blocked rank-1 Metropolis updates
  kStratification,     ///< graded-QR Green's function recomputation
  kClustering,         ///< k-fold B-matrix products
  kWrapping,           ///< G <- B G B^{-1} slice advance
  kMeasurement,        ///< physical observables
  kOther,              ///< everything else (RNG, bookkeeping)
  kCount
};

/// Human-readable label matching the row names of Table I.
const char* phase_name(Phase p);

/// Accumulates wall time per phase. Not thread-safe by design: there is one
/// profiler per chain, billed from the thread that steps the chain; use
/// merge() to aggregate per-chain profilers afterwards.
class Profiler {
 public:
  using Clock = std::chrono::steady_clock;

  /// Open a bracket for `p` at `start` (nesting allowed). Prefer
  /// ScopedPhase.
  void begin(Phase p, Clock::time_point start = Clock::now());
  /// Close the innermost bracket at `stop` and bill its time as `calls`
  /// calls.
  void end(Clock::time_point stop = Clock::now(), std::uint64_t calls = 1);

  /// Record a leaf sample directly (no nesting interaction): `seconds` is
  /// billed to `p` both inclusively and exclusively, one call.
  void add(Phase p, double seconds);

  void reset();

  /// Exclusive time: the phase's brackets minus brackets nested inside
  /// them. Sums to total_seconds() without double counting.
  double seconds(Phase p) const { return exclusive_[static_cast<int>(p)]; }
  /// Inclusive time: the phase's whole brackets, nested work included.
  double inclusive_seconds(Phase p) const {
    return inclusive_[static_cast<int>(p)];
  }
  std::uint64_t calls(Phase p) const { return calls_[static_cast<int>(p)]; }
  double total_seconds() const;
  /// Percentage of the total accounted to `p`; 0 when nothing was recorded
  /// (the zero-total case is explicit, not a division by zero).
  double percent(Phase p) const;

  /// Fold another profiler's totals into this one (independent-chain
  /// aggregation). Both profilers must have no open brackets.
  void merge(const Profiler& other);

  /// Per-phase exclusive seconds, inclusive seconds and calls, bit-exact
  /// (hexio); load() replaces this profiler's totals. Neither may run with
  /// open brackets.
  void save(std::ostream& out) const;
  void load(std::istream& in);

  /// Multi-line summary table (one row per phase with exclusive time,
  /// share, inclusive time, and calls).
  std::string report() const;

 private:
  struct Frame {
    Phase phase;
    Clock::time_point start;
    double child_seconds;  ///< time billed to brackets nested inside
  };

  std::array<double, static_cast<int>(Phase::kCount)> exclusive_{};
  std::array<double, static_cast<int>(Phase::kCount)> inclusive_{};
  std::array<std::uint64_t, static_cast<int>(Phase::kCount)> calls_{};
  std::vector<Frame> stack_;
};

/// RAII bracket crediting its lifetime to one phase of a profiler as
/// `calls` calls, and — when tracing is enabled — emitting the same interval
/// as a "phase" span in the global event log (with the optional arg()). A null
/// profiler bills nothing and emits no span; close() still returns the
/// interval.
class ScopedPhase {
 public:
  ScopedPhase(Profiler* prof, Phase phase, std::uint64_t calls = 1)
      : prof_(prof), phase_(phase), calls_(calls),
        start_(Profiler::Clock::now()) {
    if (prof_) prof_->begin(phase_, start_);
  }
  ~ScopedPhase() { close(); }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  /// Attach one numeric argument to the trace span (literal name).
  void arg(const char* name, double value) {
    arg_name_ = name;
    arg_value_ = value;
  }

  /// Close the bracket now (idempotent) and return its seconds.
  double close();

 private:
  Profiler* prof_;
  Phase phase_;
  std::uint64_t calls_;
  Profiler::Clock::time_point start_;
  double seconds_ = -1.0;  ///< < 0 while open
  const char* arg_name_ = nullptr;
  double arg_value_ = 0.0;
};

}  // namespace dqmc
