// Content-addressed design cache: the memoization layer beneath the
// flow pipeline and the `fti serve` daemon (ROADMAP item 3).
//
// A batch CLI pays compile + lint + XML round-trip + schedule build on
// every invocation; a long-lived service sees the same design again and
// again and should pay once.  The cache stores, per canonical IR hash
// (ir_hash.hpp):
//  * the XML-round-tripped design itself (what the cold verify path
//    lints and simulates);
//  * the design's elab::CheckedDesign handle, built with the entry: its
//    one validation is the design's only one, and every run of the entry
//    goes through it, so a warm hit neither re-validates nor rebuilds a
//    graph or a levelized schedule (the handle memoizes them, see
//    elab/checked.hpp);
//  * the design's lint report (lint is deterministic over the IR),
//    linted from that handle unless the caller supplies one.
//
// A second index maps *source-level* keys (program text + compile
// parameters, hashed by the caller with cache::Hasher) to IR keys, so a
// warm resubmission of the same kernel skips the HLS compiler entirely.
//
// Concurrency: one mutex over the LRU structures (operations are a few
// map lookups; the expensive work -- compiling, linting, validating --
// happens outside it).  Entries are handed out as shared_ptr<const ...>,
// so eviction never invalidates a running job.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "fti/cache/ir_hash.hpp"
#include "fti/elab/checked.hpp"
#include "fti/lint/lint.hpp"

namespace fti::cache {

/// One immutable cache entry.  `checked` views `design`, which the entry
/// owns, so a job holding the entry may run the handle past eviction.
struct CachedDesign {
  CachedDesign(const Key& ir_key, ir::Design ir_design, lint::Report report);
  /// Lints its own handle, with the semantic tier on.
  CachedDesign(const Key& ir_key, ir::Design ir_design);

  Key key;
  std::shared_ptr<const ir::Design> design;
  elab::CheckedDesign checked;
  lint::Report lint;
};

class DesignCache {
 public:
  using Entry = std::shared_ptr<const CachedDesign>;

  /// Running totals since construction.  Evictions count LRU drops, not
  /// same-key replacements.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  /// `max_entries` is clamped to >= 1.
  explicit DesignCache(std::size_t max_entries = 64);

  DesignCache(const DesignCache&) = delete;
  DesignCache& operator=(const DesignCache&) = delete;

  /// Entry for `key`, refreshed to most-recently-used; nullptr on miss.
  Entry find(const Key& key);

  /// Stores `design` (its lint report alongside) under `key`, which must
  /// be cache::hash_design(design), and returns the entry; the entry's
  /// handle reports `key` without hashing the design again.  Throws
  /// IrError, storing nothing, when the design fails ir::validate.  If
  /// the key is already present -- two jobs racing the same cold design
  /// -- the existing entry wins and is returned, so concurrent readers
  /// all converge on one design object.  May evict the
  /// least-recently-used entries over capacity.
  Entry insert(const Key& key, ir::Design design, lint::Report lint);
  /// As above, with the report linted from the new entry's handle (the
  /// semantic tier on), so the design is checked and graphed once.
  Entry insert(const Key& key, ir::Design design);

  /// Entry reachable through a source-level alias; nullptr when the
  /// alias is unknown or its target has been evicted.  Counts a
  /// hit/miss like find().
  Entry find_source(const Key& source_key);

  /// Points `source_key` at the entry cached under `ir_key`.
  void alias_source(const Key& source_key, const Key& ir_key);

  /// The levelized schedule of `entry->design->configuration(node)`,
  /// from the entry's handle (built on first request).  The returned
  /// pointer keeps the whole entry alive.  Throws like
  /// build_levelized_schedule on a combinational cycle.
  std::shared_ptr<const elab::LevelizedSchedule> schedule_for(
      const Entry& entry, const std::string& node);

  Stats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return max_entries_; }

 private:
  /// Stores a freshly built entry unless its key is already present.
  Entry publish(Entry entry);
  void evict_over_capacity_locked();

  std::size_t max_entries_;

  mutable std::mutex mutex_;
  /// Most-recently-used at the front.
  std::list<Key> order_;
  struct Slot {
    Entry entry;
    std::list<Key>::iterator position;
  };
  std::unordered_map<Key, Slot, KeyHash> entries_;
  std::unordered_map<Key, Key, KeyHash> source_aliases_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace fti::cache
