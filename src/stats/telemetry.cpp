#include "stats/telemetry.h"

#include <chrono>
#include <cmath>

#include "stats/profiler.h"

namespace elastisim::telemetry {

double wall_now() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

void Gauge::set(double sim_time, double value) {
  value_ = value;
  if (samples_.appended() == 0) {
    min_ = max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  samples_.append({sim_time, value});
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

int Histogram::bucket_index(double value) noexcept {
  int exp = std::ilogb(value);  // floor(log2), value > 0 and finite here
  if (exp < kMinExp) exp = kMinExp;
  if (exp > kMaxExp) exp = kMaxExp;
  return exp - kMinExp;
}

void Histogram::record(double value) noexcept {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  sum_ += value;
  if (value > 0.0 && std::isfinite(value)) {
    ++buckets_[static_cast<std::size_t>(bucket_index(value))];
  } else {
    ++zero_;
  }
}

double Histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 1.0) return max_;
  // 0-based rank, same convention as Recorder::wait_percentile.
  const double rank = p * static_cast<double>(count_ - 1);
  double cumulative = static_cast<double>(zero_);
  if (rank < cumulative) return min_ < 0.0 ? min_ : 0.0;
  for (int i = 0; i < kBuckets; ++i) {
    const auto in_bucket = static_cast<double>(buckets_[static_cast<std::size_t>(i)]);
    // elsim-lint: allow(float-equality) -- bucket counts are integral
    if (in_bucket == 0.0) continue;
    if (rank < cumulative + in_bucket) {
      const double lo = std::ldexp(1.0, i + kMinExp);
      const double hi = std::ldexp(1.0, i + kMinExp + 1);
      const double fraction = (rank - cumulative + 0.5) / in_bucket;
      double value = lo + fraction * (hi - lo);
      if (value < min_) value = min_;
      if (value > max_) value = max_;
      return value;
    }
    cumulative += in_bucket;
  }
  return max_;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

void Registry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

json::Value Registry::to_json() const {
  json::Object counters;
  for (const auto& [name, counter] : counters_) {
    counters[name] = static_cast<double>(counter.value());
  }

  json::Object gauges;
  for (const auto& [name, gauge] : gauges_) {
    json::Object entry;
    entry["value"] = gauge.value();
    entry["min"] = gauge.min();
    entry["max"] = gauge.max();
    entry["updates"] = static_cast<double>(gauge.updates());
    json::Array samples;
    for (const GaugeSample& sample : gauge.samples()) {
      samples.push_back(json::Value(json::Array{sample.time, sample.value}));
    }
    entry["samples"] = std::move(samples);
    gauges[name] = std::move(entry);
  }

  json::Object histograms;
  for (const auto& [name, histogram] : histograms_) {
    json::Object entry;
    entry["count"] = static_cast<double>(histogram.count());
    entry["sum"] = histogram.sum();
    entry["mean"] = histogram.mean();
    entry["min"] = histogram.min();
    entry["max"] = histogram.max();
    entry["p50"] = histogram.percentile(0.50);
    entry["p90"] = histogram.percentile(0.90);
    entry["p99"] = histogram.percentile(0.99);
    histograms[name] = std::move(entry);
  }

  json::Object out;
  // Same provenance header profile.json carries: compile-time values only,
  // so telemetry.json stays byte-identical across runs of one binary.
  out["build"] = stats::profiler::build_info_json();
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["histograms"] = std::move(histograms);
  return json::Value(std::move(out));
}

Registry& Registry::global() {
  // elsim-lint: allow(mutable-static) -- intentional process-wide singleton; counters are only touched from the engine thread
  static Registry registry;
  return registry;
}

}  // namespace elastisim::telemetry
