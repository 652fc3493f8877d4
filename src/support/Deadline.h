//===-- support/Deadline.h - Deadlines and cancellation ---------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock deadlines and cooperative cancellation for the resource
/// governor.  Long-running stages (the close phase, freezing, batched
/// queries, the hybrid ladder) poll both at coarse-grained checkpoints —
/// between worklist strides, queries, or shards — never inside the hot
/// per-edge DFS loops, so the governed pipeline costs nothing on the
/// point-query path.
///
///   * `Deadline` is a monotonic-clock (`steady_clock`) time point.
///     `Deadline::infinite()` never expires and is the default
///     everywhere, so ungoverned callers keep their existing behaviour;
///     `expired()` on it never reads the clock.
///   * `CancellationToken` is a copyable handle on a shared atomic flag.
///     A default-constructed token is *unarmed* (no allocation, never
///     cancelled); `CancellationToken::create()` arms one.  Any copy may
///     `requestCancel()`; all copies observe it.  Polling an unarmed
///     token is a null check.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SUPPORT_DEADLINE_H
#define STCFA_SUPPORT_DEADLINE_H

#include <atomic>
#include <chrono>
#include <memory>

namespace stcfa {

/// A monotonic-clock deadline.  Value type; pass by value or const ref.
class Deadline {
public:
  using Clock = std::chrono::steady_clock;

  /// The default deadline never expires.
  Deadline() = default;

  /// The longest relative deadline accepted (`--timeout-ms`, a request's
  /// `deadline_ms`): bounded so `now + Ms` stays inside the steady
  /// clock's nanosecond range (about 146 years).
  static constexpr int64_t MaxMillis = INT64_MAX / 2'000'000;

  /// A deadline \p Ms milliseconds from now; \p Ms is at most
  /// `MaxMillis`.
  static Deadline afterMillis(int64_t Ms) {
    return Deadline(Clock::now() + std::chrono::milliseconds(Ms));
  }

  /// The never-expiring deadline.
  static Deadline infinite() { return Deadline(); }

  bool isInfinite() const { return !Finite; }

  /// True once the clock passed the deadline.  Never reads the clock for
  /// an infinite deadline.
  bool expired() const { return Finite && Clock::now() >= At; }

  /// Milliseconds until expiry (clamped at 0); a large positive value
  /// for the infinite deadline.
  int64_t remainingMillis() const {
    if (!Finite)
      return INT64_MAX / 2;
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
        At - Clock::now());
    return Left.count() < 0 ? 0 : Left.count();
  }

private:
  explicit Deadline(Clock::time_point At) : At(At), Finite(true) {}

  Clock::time_point At{};
  bool Finite = false;
};

/// Copyable handle on a shared cancellation flag.  Cooperative: stages
/// poll `cancelled()` at checkpoints and unwind with `Status::Cancelled`.
class CancellationToken {
public:
  /// Unarmed token: never cancelled, no allocation.
  CancellationToken() = default;

  /// An armed token whose copies all share one flag.
  static CancellationToken create() {
    CancellationToken T;
    T.Flag = std::make_shared<std::atomic<bool>>(false);
    return T;
  }

  bool armed() const { return Flag != nullptr; }

  /// Requests cancellation; every copy of this token observes it.  No-op
  /// on an unarmed token.
  void requestCancel() const {
    if (Flag)
      Flag->store(true, std::memory_order_relaxed);
  }

  /// True once any copy requested cancellation.
  bool cancelled() const {
    return Flag && Flag->load(std::memory_order_relaxed);
  }

private:
  std::shared_ptr<std::atomic<bool>> Flag;
};

} // namespace stcfa

#endif // STCFA_SUPPORT_DEADLINE_H
