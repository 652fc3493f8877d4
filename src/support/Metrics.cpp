//===-- support/Metrics.cpp - Process-wide metrics registry ---------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

using namespace stcfa;

unsigned stcfa::detail::metricShardIndex() {
  // Each thread grabs the next shard round-robin, once; two threads may
  // share a shard after NumMetricShards threads, which stays correct
  // (fetch_add), just occasionally contended.
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Index =
      Next.fetch_add(1, std::memory_order_relaxed) % NumMetricShards;
  return Index;
}

uint64_t Counter::value() const {
  uint64_t Total = 0;
  for (const auto &S : Shards)
    Total += S.V.load(std::memory_order_relaxed);
  return Total;
}

void Counter::reset() {
  for (auto &S : Shards)
    S.V.store(0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<uint64_t> BucketBounds)
    : Bounds(std::move(BucketBounds)),
      Buckets(Bounds.size() + 1) {}

void Histogram::observe(uint64_t V) {
  size_t I = 0;
  while (I != Bounds.size() && V > Bounds[I])
    ++I;
  Buckets[I].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(V, std::memory_order_relaxed);
}

uint64_t Histogram::count() const {
  return Count.load(std::memory_order_relaxed);
}

uint64_t Histogram::sum() const { return Sum.load(std::memory_order_relaxed); }

std::vector<uint64_t> Histogram::bucketCounts() const {
  std::vector<uint64_t> Out(Buckets.size());
  for (size_t I = 0; I != Buckets.size(); ++I)
    Out[I] = Buckets[I].load(std::memory_order_relaxed);
  return Out;
}

void Histogram::reset() {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
}

namespace {

// std::map keeps snapshot order deterministic (name-sorted) and node
// stability keeps handed-out references valid forever.
struct MetricsRegistry {
  std::mutex M;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

MetricsRegistry &metricsRegistry() {
  static MetricsRegistry R;
  return R;
}

void indentInto(std::string &Out, int N) {
  Out.append(static_cast<size_t>(N), ' ');
}

} // namespace

Counter &stcfa::counter(const std::string &Name) {
  MetricsRegistry &R = metricsRegistry();
  std::lock_guard<std::mutex> Lock(R.M);
  auto &Slot = R.Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &stcfa::gauge(const std::string &Name) {
  MetricsRegistry &R = metricsRegistry();
  std::lock_guard<std::mutex> Lock(R.M);
  auto &Slot = R.Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &stcfa::histogram(const std::string &Name,
                            std::vector<uint64_t> BucketBounds) {
  MetricsRegistry &R = metricsRegistry();
  std::lock_guard<std::mutex> Lock(R.M);
  auto &Slot = R.Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>(std::move(BucketBounds));
  return *Slot;
}

MetricsSnapshot stcfa::snapshotMetrics() {
  MetricsRegistry &R = metricsRegistry();
  std::lock_guard<std::mutex> Lock(R.M);
  MetricsSnapshot S;
  for (const auto &[Name, C] : R.Counters)
    S.Counters.emplace_back(Name, C->value());
  for (const auto &[Name, G] : R.Gauges)
    S.Gauges.emplace_back(Name, G->value());
  for (const auto &[Name, H] : R.Histograms) {
    MetricsSnapshot::HistogramValue V;
    V.Name = Name;
    V.Bounds = H->bounds();
    V.BucketCounts = H->bucketCounts();
    V.Count = H->count();
    V.Sum = H->sum();
    S.Histograms.push_back(std::move(V));
  }
  return S;
}

void stcfa::resetMetrics() {
  MetricsRegistry &R = metricsRegistry();
  std::lock_guard<std::mutex> Lock(R.M);
  for (auto &KV : R.Counters)
    KV.second->reset();
  for (auto &KV : R.Gauges)
    KV.second->reset();
  for (auto &KV : R.Histograms)
    KV.second->reset();
}

std::string MetricsSnapshot::toJson(int Indent) const {
  std::string Out;
  const int I0 = Indent, I1 = Indent + 2, I2 = Indent + 4, I3 = Indent + 6;
  Out += "{\n";
  indentInto(Out, I1);
  Out += "\"counters\": {";
  for (size_t I = 0; I != Counters.size(); ++I) {
    Out += I ? ",\n" : "\n";
    indentInto(Out, I2);
    Out += "\"" + Counters[I].first +
           "\": " + std::to_string(Counters[I].second);
  }
  if (!Counters.empty()) {
    Out += "\n";
    indentInto(Out, I1);
  }
  Out += "},\n";
  indentInto(Out, I1);
  Out += "\"gauges\": {";
  for (size_t I = 0; I != Gauges.size(); ++I) {
    Out += I ? ",\n" : "\n";
    indentInto(Out, I2);
    Out += "\"" + Gauges[I].first + "\": " + std::to_string(Gauges[I].second);
  }
  if (!Gauges.empty()) {
    Out += "\n";
    indentInto(Out, I1);
  }
  Out += "},\n";
  indentInto(Out, I1);
  Out += "\"histograms\": {";
  for (size_t I = 0; I != Histograms.size(); ++I) {
    const HistogramValue &H = Histograms[I];
    Out += I ? ",\n" : "\n";
    indentInto(Out, I2);
    Out += "\"" + H.Name + "\": {\n";
    indentInto(Out, I3);
    Out += "\"count\": " + std::to_string(H.Count) +
           ", \"sum\": " + std::to_string(H.Sum) + ",\n";
    indentInto(Out, I3);
    Out += "\"bounds\": [";
    for (size_t J = 0; J != H.Bounds.size(); ++J)
      Out += (J ? ", " : "") + std::to_string(H.Bounds[J]);
    Out += "],\n";
    indentInto(Out, I3);
    Out += "\"buckets\": [";
    for (size_t J = 0; J != H.BucketCounts.size(); ++J)
      Out += (J ? ", " : "") + std::to_string(H.BucketCounts[J]);
    Out += "]\n";
    indentInto(Out, I2);
    Out += "}";
  }
  if (!Histograms.empty()) {
    Out += "\n";
    indentInto(Out, I1);
  }
  Out += "}\n";
  indentInto(Out, I0);
  Out += "}";
  return Out;
}

std::string MetricsSnapshot::toCompactJson() const {
  // Metric names hold no whitespace, so every space and newline in the
  // pretty rendering is layout.
  std::string Out = toJson();
  Out.erase(std::remove_if(Out.begin(), Out.end(),
                           [](char C) { return C == ' ' || C == '\n'; }),
            Out.end());
  return Out;
}
