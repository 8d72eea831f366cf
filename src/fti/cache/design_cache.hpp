// Content-addressed design cache: the memoization layer beneath the
// flow pipeline and the `fti serve` daemon (ROADMAP item 3).
//
// A batch CLI pays compile + lint + XML round-trip + schedule build on
// every invocation; a long-lived service sees the same design again and
// again and should pay once.  The cache stores, per canonical IR hash
// (ir_hash.hpp):
//  * the validated, XML-round-tripped design itself (what the cold
//    verify path simulates after its serialization check);
//  * the design's lint report (lint is deterministic over the IR);
//  * lazily, the levelized schedule of each configuration, shared with
//    the levelized/batched engines through the schedule-provider hook
//    in elab/levelized.hpp.
//
// A second index maps *source-level* keys (program text + compile
// parameters, hashed by the caller with cache::Hasher) to IR keys, so a
// warm resubmission of the same kernel skips the HLS compiler entirely.
//
// Concurrency: one mutex over the LRU structures (operations are a few
// map lookups; the expensive work -- compiling, linting, schedule
// building -- happens outside it), plus a per-entry mutex for the lazy
// schedule memo.  Entries are handed out as shared_ptr<const ...>, so
// eviction never invalidates a running job.
//
// The schedule-provider contract: every live DesignCache registers in a
// process-global registry keyed by the *address* of the designs it
// owns.  The engines ask "schedule for this design object?"; pointer
// identity guarantees the memoized schedule was built from exactly the
// datapath being elaborated, with no re-hash on the hot path.  Designs
// not owned by any cache fall through to a fresh build.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "fti/cache/ir_hash.hpp"
#include "fti/elab/levelized.hpp"
#include "fti/lint/lint.hpp"

namespace fti::cache {

/// Line counts of a verified design's source and artefacts: the verify
/// report's Table I "lines of description" columns
/// (harness::FlowArtifacts).  Declared here so an entry can memoize them.
struct ArtifactLines {
  std::size_t lo_source = 0;
  std::size_t lo_xml_datapath = 0;  ///< summed over configurations
  std::size_t lo_xml_fsm = 0;
  std::size_t lo_xml_rtg = 0;
  std::size_t lo_hds = 0;
  std::size_t lo_vhdl = 0;
  std::size_t lo_verilog = 0;
  std::size_t lo_systemc = 0;
  std::size_t lo_dot = 0;
};

/// One immutable cache entry.  `schedules` is the lazy per-node
/// levelized-schedule memo (mutable + mutex: logically part of the
/// entry's value, filled on first use).
struct CachedDesign {
  Key key;
  std::shared_ptr<const ir::Design> design;
  lint::Report lint;

  mutable std::mutex schedule_mutex;
  mutable std::map<std::string, std::shared_ptr<const elab::LevelizedSchedule>>
      schedules;

  /// Lazy memo of the design's artefact line counts (lo_source left
  /// zero), indexed by whether the HDL/graph backends were generated.
  /// Re-serializing a large design to XML -- or regenerating every
  /// backend -- just to count lines costs as much as the round-trip
  /// itself, so warm runs must not repeat it.  Guarded by
  /// schedule_mutex.
  mutable std::optional<ArtifactLines> artifact_lines[2];
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
    std::uint64_t schedule_builds = 0;
    std::uint64_t schedule_hits = 0;
  };

  /// `max_entries` is clamped to >= 1.  Construction registers the
  /// cache with the engines' schedule provider (see file comment).
  explicit DesignCache(std::size_t max_entries = 64);
  ~DesignCache();

  DesignCache(const DesignCache&) = delete;
  DesignCache& operator=(const DesignCache&) = delete;

  /// Entry for `key`, refreshed to most-recently-used; nullptr on miss.
  Entry find(const Key& key);

  /// Stores `design` (its lint report alongside) under `key` and
  /// returns the entry.  If the key is already present -- two jobs
  /// racing the same cold design -- the existing entry wins and is
  /// returned, so concurrent readers all converge on one design object.
  /// May evict the least-recently-used entries over capacity.
  Entry insert(const Key& key, ir::Design design, lint::Report lint);

  /// Entry reachable through a source-level alias; nullptr when the
  /// alias is unknown or its target has been evicted.  Counts a
  /// hit/miss like find().
  Entry find_source(const Key& source_key);

  /// Points `source_key` at the entry cached under `ir_key`.
  void alias_source(const Key& source_key, const Key& ir_key);

  /// The levelized schedule of `entry->design->configuration(node)`,
  /// built on first request and memoized.  The returned pointer keeps
  /// the whole entry alive (the schedule's steps point into the entry's
  /// design).  Throws like build_levelized_schedule on a combinational
  /// cycle.
  std::shared_ptr<const elab::LevelizedSchedule> schedule_for(
      const Entry& entry, const std::string& node);

  Stats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return max_entries_; }

 private:
  friend elab::SharedSchedule provider_lookup(const ir::Design& design,
                                              const std::string& node);

  /// Entry owning `design` (by address), or nullptr.  Used by the
  /// schedule provider; takes the cache mutex but does not touch LRU
  /// order or hit/miss counters (it is not a content lookup).
  Entry find_by_address(const ir::Design* design);

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
  std::unordered_map<const ir::Design*, Entry> by_address_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> schedule_builds_{0};
  std::atomic<std::uint64_t> schedule_hits_{0};
};

}  // namespace fti::cache
