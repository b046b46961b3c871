#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

/// \file histogram.h
/// Fixed-bucket log-scale latency/value histogram — the metrics substrate of
/// the observability subsystem (DESIGN.md §11). Buckets are powers of two
/// (bucket 0 holds the value 0, bucket i>=1 holds [2^(i-1), 2^i - 1]), so
/// Record() is a clz plus one relaxed atomic increment: cheap enough to stay
/// on always, even on the executor hot path, and allocation-free (the bucket
/// array is inline). Quantiles are estimated by linear interpolation inside
/// the covering bucket, tightened by the tracked min/max.

namespace lakeharbor::obs {

inline constexpr size_t kHistogramBuckets = 65;

/// Bucket index of `value`: 0 for 0, otherwise floor(log2(value)) + 1.
inline size_t HistogramBucketOf(uint64_t value) {
  return value == 0 ? 0 : 64 - static_cast<size_t>(__builtin_clzll(value));
}

/// Inclusive lower bound of bucket `i`.
inline uint64_t HistogramBucketLower(size_t i) {
  return i == 0 ? 0 : uint64_t{1} << (i - 1);
}

/// Inclusive upper bound of bucket `i`.
inline uint64_t HistogramBucketUpper(size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return UINT64_MAX;
  return (uint64_t{1} << i) - 1;
}

/// Plain copyable snapshot of a LatencyHistogram, with the quantile math.
struct HistogramSnapshot {
  uint64_t counts[kHistogramBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  ///< meaningful only when count > 0
  uint64_t max = 0;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Estimated q-quantile (q in [0, 1]): find the bucket covering the rank
  /// and interpolate linearly within it, clamped to the observed min/max.
  uint64_t Quantile(double q) const {
    if (count == 0) return 0;
    if (q <= 0.0) return min;
    if (q >= 1.0) return max;
    const double rank = q * static_cast<double>(count - 1);
    uint64_t cum = 0;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      const uint64_t c = counts[i];
      if (c == 0) continue;
      if (rank < static_cast<double>(cum + c)) {
        uint64_t lo = HistogramBucketLower(i);
        uint64_t hi = HistogramBucketUpper(i);
        if (lo < min) lo = min;
        if (hi > max) hi = max;
        if (hi <= lo) return lo;
        const double frac = (rank - static_cast<double>(cum)) /
                            static_cast<double>(c);
        return lo + static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
      }
      cum += c;
    }
    return max;
  }

  uint64_t P50() const { return Quantile(0.50); }
  uint64_t P95() const { return Quantile(0.95); }
  uint64_t P99() const { return Quantile(0.99); }

  /// Plain single-writer Record, for a snapshot kept as one thread's shard
  /// of a histogram and folded into the total with Merge.
  void Record(uint64_t value) {
    ++counts[HistogramBucketOf(value)];
    if (count == 0 || value < min) min = value;
    if (value > max) max = value;
    ++count;
    sum += value;
  }

  void Merge(const HistogramSnapshot& other) {
    for (size_t i = 0; i < kHistogramBuckets; ++i) counts[i] += other.counts[i];
    if (other.count > 0) {
      min = count == 0 ? other.min : (other.min < min ? other.min : min);
      max = other.max > max ? other.max : max;
    }
    count += other.count;
    sum += other.sum;
  }

  /// One-line summary, e.g. "n=142 mean=512.3 p50=490 p95=1980 p99=3830
  /// max=4102". Values are raw (microseconds for latency histograms).
  std::string Summary() const;
};

/// Thread-safe log-scale histogram: relaxed atomic bucket counters, no
/// allocation, no locks. Record() is wait-free apart from the min/max CAS
/// loops (bounded: they only retry while another thread is improving the
/// bound). Intended for device service times, dereference latencies, queue
/// dwell, batch sizes — anything whose tail matters.
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(uint64_t value) {
    buckets_[HistogramBucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      s.counts[i] = buckets_[i].load(std::memory_order_relaxed);
      s.count += s.counts[i];
    }
    s.sum = sum_.load(std::memory_order_relaxed);
    if (s.count > 0) {
      const uint64_t min = min_.load(std::memory_order_relaxed);
      s.min = min == UINT64_MAX ? 0 : min;
      s.max = max_.load(std::memory_order_relaxed);
    }
    return s;
  }

  void Reset() {
    for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(UINT64_MAX, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kHistogramBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

}  // namespace lakeharbor::obs
