//===-- support/Metrics.h - Process-wide metrics registry -------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small process-wide metrics registry: monotonic counters, gauges, and
/// fixed-bucket latency histograms.  Always compiled in (unlike Trace) —
/// the hot path is cheap enough to leave on:
///
///  * `Counter::add()` is one relaxed `fetch_add` on the calling thread's
///    shard — a cache-line-padded atomic slot picked once per thread —
///    so concurrent threads never contend on the same line.  Shards are
///    summed at scrape time.
///  * `Gauge::set()` is a single atomic store (gauges are set from one
///    place at a time; no sharding needed).
///  * `Histogram::observe()` bumps one bucket with a relaxed `fetch_add`.
///    Observations are stage latencies — dozens per run, not millions —
///    so buckets are plain atomics.
///
/// Registration (`counter("close.edges_added")`) takes a mutex; callers
/// cache the returned reference in a function-local static so the lookup
/// happens once:
///
/// \code
///   static Counter &Edges = counter("close.edges_added");
///   Edges.add(Delta);
/// \endcode
///
/// `resetMetrics()` zeroes values but never invalidates handles — those
/// cached references stay good for the life of the process.
/// `snapshotMetrics()` returns a deterministic (name-sorted) snapshot
/// with a JSON serialization matching docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SUPPORT_METRICS_H
#define STCFA_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace stcfa {

namespace detail {
struct alignas(64) MetricShard {
  std::atomic<uint64_t> V{0};
};
/// The calling thread's stable shard index in [0, NumShards).
unsigned metricShardIndex();
constexpr unsigned NumMetricShards = 16;
} // namespace detail

/// Monotonic counter, sharded per thread.
class Counter {
public:
  void add(uint64_t N) {
    Shards[detail::metricShardIndex()].V.fetch_add(N,
                                                   std::memory_order_relaxed);
  }
  void inc() { add(1); }
  /// Sum over shards (scrape path).
  uint64_t value() const;
  void reset();

private:
  detail::MetricShard Shards[detail::NumMetricShards];
};

/// Point-in-time value (e.g. rows resident, current rung).
class Gauge {
public:
  void set(int64_t V) { Val.store(V, std::memory_order_relaxed); }
  int64_t value() const { return Val.load(std::memory_order_relaxed); }
  void reset() { Val.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> Val{0};
};

/// Fixed-bucket histogram.  Bounds are ascending upper bounds (`le`);
/// one implicit overflow bucket catches everything above the last bound.
class Histogram {
public:
  explicit Histogram(std::vector<uint64_t> BucketBounds);
  void observe(uint64_t V);
  uint64_t count() const;
  uint64_t sum() const;
  /// Cumulative-free per-bucket counts; size() == bounds().size() + 1.
  std::vector<uint64_t> bucketCounts() const;
  const std::vector<uint64_t> &bounds() const { return Bounds; }
  void reset();

private:
  std::vector<uint64_t> Bounds;
  std::vector<std::atomic<uint64_t>> Buckets; // Bounds.size() + 1
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
};

/// Looks up or registers a metric by name.  Names are dot-separated
/// `stage.metric` (see docs/OBSERVABILITY.md); first registration wins
/// (for histograms, later bound lists are ignored).  The references stay
/// valid for the life of the process.
Counter &counter(const std::string &Name);
Gauge &gauge(const std::string &Name);
Histogram &histogram(const std::string &Name,
                     std::vector<uint64_t> BucketBounds);

/// Millisecond latency bounds shared by the stage histograms.
inline std::vector<uint64_t> latencyBucketsMillis() {
  return {1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000};
}

/// Deterministic point-in-time copy of every registered metric.
struct MetricsSnapshot {
  struct HistogramValue {
    std::string Name;
    std::vector<uint64_t> Bounds;
    std::vector<uint64_t> BucketCounts; // Bounds.size() + 1 (overflow last)
    uint64_t Count = 0;
    uint64_t Sum = 0;
  };
  std::vector<std::pair<std::string, uint64_t>> Counters; // name-sorted
  std::vector<std::pair<std::string, int64_t>> Gauges;    // name-sorted
  std::vector<HistogramValue> Histograms;                 // name-sorted

  /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
  std::string toJson(int Indent = 0) const;
  /// The same document on one line with no whitespace: what the daemon's
  /// `metrics` reply carries.
  std::string toCompactJson() const;
};

MetricsSnapshot snapshotMetrics();

/// Zeroes every registered metric (handles stay valid).
void resetMetrics();

} // namespace stcfa

#endif // STCFA_SUPPORT_METRICS_H
