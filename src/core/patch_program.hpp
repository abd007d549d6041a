#pragma once

/// \file patch_program.hpp
/// The patch-program interface (Fig. 6 / Alg. 1 of the paper): data-driven
/// logic on one (patch, task) pair, factored into five primitive
/// functions. Implementations must be fully reentrant — compute() is called
/// many times, each consuming whatever inputs have arrived so far (partial
/// computation, Sec. III-A1).

#include <cstdint>
#include <memory>
#include <optional>

#include "core/stream.hpp"
#include "support/ids.hpp"

namespace jsweep::core {

/// One data-driven program on a (patch, task) pair (see
/// \ref patch_program.hpp): the engine drives it through
/// init → {input* → compute → output*}* → vote_to_halt.
class PatchProgram {
 public:
  /// Bind the program to its engine address (patch, task tag).
  PatchProgram(PatchId patch, TaskTag task) : key_{patch, task} {}
  virtual ~PatchProgram() = default;  ///< virtual: engines own programs

  PatchProgram(const PatchProgram&) = delete;             ///< non-copyable
  PatchProgram& operator=(const PatchProgram&) = delete;  ///< non-copyable

  /// The engine address this program is registered under.
  [[nodiscard]] const ProgramKey& key() const { return key_; }

  /// Initialize local context. Called exactly once, before the first
  /// compute().
  virtual void init() = 0;

  /// Consume one incoming stream. Called zero or more times before each
  /// compute().
  virtual void input(const Stream& s) = 0;

  /// Perform (partial) computation with whatever is currently ready.
  virtual void compute() = 0;

  /// Fetch the next pending outgoing stream, or nullopt when drained.
  /// Called repeatedly after compute() until it returns nullopt.
  virtual std::optional<Stream> output() = 0;

  /// True when the program has no runnable work left; it becomes inactive
  /// until the next stream arrives (state machine of Fig. 7). While it
  /// returns false the data-driven Engine calls compute() again on the same
  /// worker.
  virtual bool vote_to_halt() = 0;

  /// Remaining known work units (e.g., unswept (cell, angle) vertices).
  /// Drives the known-workload termination fast path; programs whose
  /// workload is not known in advance (e.g., particle tracing) return 0 and
  /// the engine must use Safra termination.
  [[nodiscard]] virtual std::int64_t remaining_work() const = 0;

  /// Total known work units this program will retire over the whole run
  /// (the workload "committed" to the progress tracker, Sec. III-B).
  /// Return 0 for unknown-workload programs (then use Safra termination).
  [[nodiscard]] virtual std::int64_t total_work() const { return 0; }

 private:
  ProgramKey key_;
};

}  // namespace jsweep::core
