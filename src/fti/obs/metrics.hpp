// Process-wide observability: the metrics half (see trace.hpp for spans).
//
// The infrastructure now runs five engine lanes, a work-stealing worker
// pool and parallel suite/fuzz campaigns; this registry is where those
// layers report what they did -- events popped, levels swept, tasks
// stolen, designs generated -- so a scaling PR can measure a hot path
// before and after touching it.
//
// Design constraints, in priority order:
//  * Near-zero cost while disabled (the default).  Every mutation is
//    gated on one process-wide flag read with a relaxed atomic load; the
//    disabled path performs no allocation, takes no lock and touches no
//    shared cache line beyond that flag.
//  * Safe from any thread.  Metric values are plain atomics; the only
//    locks are per-shard registration locks (get-or-create by name) and
//    those never sit on a simulation hot path -- callers hold handles or
//    register at partition/task granularity.
//  * Stable handles.  Counter/Gauge/Histogram references stay valid for
//    the process lifetime (node-based storage); reset() zeroes values but
//    never invalidates a handle, so tests can reuse the process registry.
//
// The registry is name-sharded (fixed shard count, one mutex each) so
// concurrent get-or-create from many workers does not serialise on one
// lock.  Snapshots lock shard-by-shard and return plain structs; the
// JSON rendering lives in obs/json.hpp so this library stays free of
// util dependencies (fti_util links fti_obs for the thread-pool
// instrumentation, not the other way around).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fti::obs {

namespace detail {
extern std::atomic<bool> g_enabled;

/// Lock-free accumulate for doubles (atomic<double>::fetch_add is not
/// guaranteed lock-free everywhere; the CAS loop is, for 64-bit doubles).
inline void add_double(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + value,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// The one switch: true while the process records metrics AND spans.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flips recording on/off.  Off is the default; flipping on mid-run only
/// affects mutations that happen after the store becomes visible.
void set_enabled(bool on);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n) {
    if (enabled()) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  void inc() { add(1); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (coverage percent, cycles/sec).
class Gauge {
 public:
  void set(double value) {
    if (enabled()) {
      value_.store(value, std::memory_order_relaxed);
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds, sorted
/// ascending, with an implicit +inf bucket appended.  Bounds are fixed at
/// registration -- a later histogram() call with the same name returns
/// the existing instance and ignores its `bounds` argument.
class Histogram {
 public:
  void observe(double value) {
    if (!enabled()) {
      return;
    }
    std::size_t bucket = 0;
    while (bucket < bounds_.size() && value > bounds_[bucket]) {
      ++bucket;
    }
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    detail::add_double(sum_, value);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);
  std::vector<double> bounds_;
  /// bounds_.size() + 1 entries; the last is the +inf bucket.
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value;
};
struct GaugeSnapshot {
  std::string name;
  double value;
};
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  /// bounds.size() + 1 entries, last is +inf.
  std::vector<std::uint64_t> bucket_counts;
  std::uint64_t count;
  double sum;
};

/// One consistent-enough copy of every metric (each value is read
/// atomically; the set of metrics is read under the shard locks).  Sorted
/// by name within each kind, so a deterministic producer snapshots to a
/// byte-stable report.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// The process-wide metric store.  get-or-create by name; see the file
/// comment for the locking/stability contract.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot snapshot() const;

  /// Zeroes every value (counters, gauges, histogram buckets) without
  /// invalidating handles.  For tests and the bench overhead harness.
  void reset_values();

 private:
  Registry() = default;

  struct Shard {
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms;
  };
  static constexpr std::size_t kShards = 16;

  Shard& shard_for(std::string_view name);

  std::array<Shard, kShards> shards_;
};

/// Convenience accessors on the process registry.
inline Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return Registry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name,
                            std::vector<double> bounds) {
  return Registry::instance().histogram(name, std::move(bounds));
}

}  // namespace fti::obs
