#include "fti/cache/design_cache.hpp"

#include <algorithm>
#include <utility>

#include "fti/obs/metrics.hpp"

namespace fti::cache {
namespace {

/// Registered once, read on every counter bump; the obs mirrors feed
/// `fti serve --metrics` / the `metrics` wire request, while the
/// per-cache atomics in Stats stay exact even with obs disabled.
struct ObsCounters {
  obs::Counter& hits = obs::counter("cache.hits");
  obs::Counter& misses = obs::counter("cache.misses");
  obs::Counter& insertions = obs::counter("cache.insertions");
  obs::Counter& evictions = obs::counter("cache.evictions");
};

ObsCounters& obs_counters() {
  static ObsCounters counters;
  return counters;
}

}  // namespace

CachedDesign::CachedDesign(const Key& ir_key, ir::Design ir_design,
                           lint::Report report)
    : key(ir_key),
      design(std::make_shared<const ir::Design>(std::move(ir_design))),
      checked(*design, ir_key),
      lint(std::move(report)) {}

CachedDesign::CachedDesign(const Key& ir_key, ir::Design ir_design)
    : key(ir_key),
      design(std::make_shared<const ir::Design>(std::move(ir_design))),
      checked(*design, ir_key),
      lint(lint::lint_design(checked)) {}

DesignCache::DesignCache(std::size_t max_entries)
    : max_entries_(std::max<std::size_t>(1, max_entries)) {}

DesignCache::Entry DesignCache::find(const Key& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs_counters().misses.inc();
    return nullptr;
  }
  order_.splice(order_.begin(), order_, it->second.position);
  hits_.fetch_add(1, std::memory_order_relaxed);
  obs_counters().hits.inc();
  return it->second.entry;
}

DesignCache::Entry DesignCache::insert(const Key& key, ir::Design design,
                                       lint::Report lint) {
  return publish(std::make_shared<const CachedDesign>(key, std::move(design),
                                                      std::move(lint)));
}

DesignCache::Entry DesignCache::insert(const Key& key, ir::Design design) {
  return publish(std::make_shared<const CachedDesign>(key, std::move(design)));
}

DesignCache::Entry DesignCache::publish(Entry entry) {
  // The entry was validated (and linted) outside the lock; a racing
  // insert of the same key wastes only that work.
  const Key& key = entry->key;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Lost the cold-path race; converge on the first insert.
    order_.splice(order_.begin(), order_, it->second.position);
    return it->second.entry;
  }
  order_.push_front(key);
  entries_.emplace(key, Slot{entry, order_.begin()});
  insertions_.fetch_add(1, std::memory_order_relaxed);
  obs_counters().insertions.inc();
  evict_over_capacity_locked();
  return entry;
}

DesignCache::Entry DesignCache::find_source(const Key& source_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto alias = source_aliases_.find(source_key);
  if (alias != source_aliases_.end()) {
    auto it = entries_.find(alias->second);
    if (it != entries_.end()) {
      order_.splice(order_.begin(), order_, it->second.position);
      hits_.fetch_add(1, std::memory_order_relaxed);
      obs_counters().hits.inc();
      return it->second.entry;
    }
    source_aliases_.erase(alias);  // target evicted: alias is stale
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs_counters().misses.inc();
  return nullptr;
}

void DesignCache::alias_source(const Key& source_key, const Key& ir_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.find(ir_key) == entries_.end()) {
    return;  // target already evicted; a stale alias would only mislead
  }
  // Aliases are two Keys each, but unbounded growth is still a leak in
  // a long-lived daemon; reset the map when it dwarfs the entry table
  // (stale ones also age out lazily in find_source).
  if (source_aliases_.size() >= 8 * max_entries_ + 8) {
    source_aliases_.clear();
  }
  source_aliases_[source_key] = ir_key;
}

std::shared_ptr<const elab::LevelizedSchedule> DesignCache::schedule_for(
    const Entry& entry, const std::string& node) {
  return {entry, &entry->checked.schedule(node)};
}

DesignCache::Stats DesignCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t DesignCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void DesignCache::evict_over_capacity_locked() {
  while (entries_.size() > max_entries_) {
    const Key& victim = order_.back();
    entries_.erase(victim);
    order_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs_counters().evictions.inc();
  }
}

}  // namespace fti::cache
