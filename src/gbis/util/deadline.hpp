// Cooperative per-run deadlines for the refinement step loops. A
// Deadline is a tiny copyable handle (a steady_clock expiry or
// "unlimited") that KlOptions/SaOptions/FmOptions carry into their
// pass/temperature/step loops; the loops poll it at throttled
// intervals and throw DeadlineExceeded when it has passed. The trial
// runner turns that exception into a `timed_out` trial status instead
// of letting one hung schedule poison a whole campaign.
//
// The checks are cooperative: a method that never polls (greedy,
// spectral, random — all bounded-time anyway) is not interruptible.
#pragma once

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

namespace gbis {

/// Thrown by step loops (and the injected-hang fault) when a Deadline
/// expires. Derives from std::runtime_error so un-aware callers still
/// see an ordinary error; the trial runner catches it first and maps
/// it to TrialStatus::kTimedOut.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("deadline exceeded") {}
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

/// Wall-clock deadline handle. Default-constructed deadlines never
/// expire, so option structs can embed one with zero overhead until a
/// caller opts in via Deadline::after().
class Deadline {
 public:
  /// Unlimited: expired() is always false.
  Deadline() = default;

  /// Expires `seconds` of wall clock from now. seconds <= 0 expires
  /// immediately (useful in tests); a budget past what steady_clock can
  /// hold from now never expires.
  static Deadline after(double seconds) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    const Clock::rep headroom = (Clock::time_point::max() - now).count();
    const std::chrono::duration<double> budget(std::max(seconds, 0.0));
    const double ticks =
        std::chrono::duration<double, Clock::period>(budget).count();
    if (!(ticks < static_cast<double>(headroom))) return Deadline();
    Deadline d;
    d.unlimited_ = false;
    d.expiry_ = now + Clock::duration(
                          std::min(static_cast<Clock::rep>(ticks), headroom));
    return d;
  }

  bool unlimited() const { return unlimited_; }

  bool expired() const {
    return !unlimited_ && std::chrono::steady_clock::now() >= expiry_;
  }

  /// Seconds left; +infinity when unlimited, <= 0 when expired.
  double remaining_seconds() const {
    if (unlimited_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(expiry_ -
                                         std::chrono::steady_clock::now())
        .count();
  }

  /// Throws DeadlineExceeded if expired. The polling primitive the
  /// step loops call (throttled — a steady_clock read per call).
  void check() const {
    if (expired()) throw DeadlineExceeded();
  }

 private:
  bool unlimited_ = true;
  std::chrono::steady_clock::time_point expiry_{};
};

}  // namespace gbis
