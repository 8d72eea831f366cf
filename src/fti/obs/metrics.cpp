#include "fti/obs/metrics.hpp"

#include <algorithm>
#include <functional>

namespace fti::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  std::sort(bounds_.begin(), bounds_.end());
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Registry::Shard& Registry::shard_for(std::string_view name) {
  return shards_[std::hash<std::string_view>{}(name) % kShards];
}

Counter& Registry::counter(std::string_view name) {
  Shard& shard = shard_for(name);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.counters.find(name);
  if (it == shard.counters.end()) {
    it = shard.counters
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter()))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  Shard& shard = shard_for(name);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.gauges.find(name);
  if (it == shard.gauges.end()) {
    it = shard.gauges
             .emplace(std::string(name), std::unique_ptr<Gauge>(new Gauge()))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  Shard& shard = shard_for(name);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.histograms.find(name);
  if (it == shard.histograms.end()) {
    it = shard.histograms
             .emplace(std::string(name), std::unique_ptr<Histogram>(
                                             new Histogram(std::move(bounds))))
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [name, counter] : shard.counters) {
      snap.counters.push_back({name, counter->value()});
    }
    for (const auto& [name, gauge] : shard.gauges) {
      snap.gauges.push_back({name, gauge->value()});
    }
    for (const auto& [name, histogram] : shard.histograms) {
      HistogramSnapshot h;
      h.name = name;
      h.bounds = histogram->bounds();
      h.bucket_counts.reserve(h.bounds.size() + 1);
      for (std::size_t i = 0; i <= h.bounds.size(); ++i) {
        h.bucket_counts.push_back(
            histogram->counts_[i].load(std::memory_order_relaxed));
      }
      h.count = histogram->count();
      h.sum = histogram->sum();
      snap.histograms.push_back(std::move(h));
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void Registry::reset_values() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto& [name, counter] : shard.counters) {
      counter->value_.store(0, std::memory_order_relaxed);
    }
    for (auto& [name, gauge] : shard.gauges) {
      gauge->value_.store(0.0, std::memory_order_relaxed);
    }
    for (auto& [name, histogram] : shard.histograms) {
      for (std::size_t i = 0; i <= histogram->bounds_.size(); ++i) {
        histogram->counts_[i].store(0, std::memory_order_relaxed);
      }
      histogram->count_.store(0, std::memory_order_relaxed);
      histogram->sum_.store(0.0, std::memory_order_relaxed);
    }
  }
}

}  // namespace fti::obs
