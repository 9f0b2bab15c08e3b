// Per-core L1/L2 plus a shared inclusive LLC, Skylake-like.
//
// Inclusivity matters for the attacks: clflush (or an LLC eviction) removes a
// line from every private cache too, guaranteeing the next access reaches
// DRAM — and, for protected addresses, the MEE. The MEE cache is NOT part of
// this hierarchy and is untouched by clflush (paper §3 challenge 1).
//
// When the LLC fill policy admits every miss the hierarchy is strictly
// inclusive, and the LLC keeps a sharer plane (SetAssocCache::track_sharers,
// Intel's core-valid bits): clflush and back-invalidation then probe only
// the private caches of the cores marked on the line, and an LLC miss proves
// no private copy exists. A policy that may decline a miss (random fill)
// breaks inclusion, so such a hierarchy probes every core as before.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "common/rng.h"
#include "common/types.h"
#include "obs/hub.h"

namespace meecc::cache {

enum class HitLevel { kL1, kL2, kLlc, kMemory };

std::string_view to_string(HitLevel level);

struct HierarchyConfig {
  Geometry l1{.size_bytes = 32 * 1024, .ways = 8};
  Geometry l2{.size_bytes = 256 * 1024, .ways = 4};
  Geometry llc{.size_bytes = 8 * 1024 * 1024, .ways = 16};
  /// Full policy stack per level (indexing × replacement × fill);
  /// defaults are the classic modulo / tree-plru / all-ways shape.
  PolicyConfig l1_policy;
  PolicyConfig l2_policy;
  PolicyConfig llc_policy;
  Cycles l1_latency = 4;    ///< hit latency
  Cycles l2_latency = 14;   ///< hit latency (includes L1 miss)
  Cycles llc_latency = 44;  ///< hit latency (includes L1+L2 miss)
  Cycles clflush_latency = 46;
  Cycles mfence_latency = 24;
};

struct HierarchyResult {
  HitLevel level = HitLevel::kMemory;
  Cycles lookup_latency = 0;  ///< excludes DRAM/MEE time on kMemory
};

class Hierarchy {
 public:
  /// `hub` (optional, borrowed) receives per-level hit/miss/eviction
  /// counters under cache.l1 / cache.l2 / cache.llc and eviction trace
  /// events; it must outlive the hierarchy.
  Hierarchy(const HierarchyConfig& config, unsigned core_count, Rng rng,
            obs::Hub* hub = nullptr);

  /// Performs one data access from `core`, filling all levels on miss
  /// (inclusive fill). LLC evictions back-invalidate every private cache.
  /// `now` only timestamps trace events; it does not affect behaviour.
  HierarchyResult access(CoreId core, PhysAddr addr, Cycles now = 0);

  /// clflush semantics: removes the line from LLC and all private caches.
  /// Returns the modelled instruction latency.
  Cycles clflush(PhysAddr addr);

  /// True if the line is resident anywhere in the hierarchy.
  bool resident(PhysAddr addr) const;

  const HierarchyConfig& config() const { return config_; }
  unsigned core_count() const { return static_cast<unsigned>(l1_.size()); }

  const SetAssocCache& l1(CoreId core) const { return *l1_.at(core.value); }
  const SetAssocCache& l2(CoreId core) const { return *l2_.at(core.value); }
  const SetAssocCache& llc() const { return *llc_; }

  void flush_all();

  /// Full cache-array state for snapshot/fork: value copies of every level
  /// (lines, PLRU bits, policy objects, per-set eviction tallies, RNG).
  /// Counter handles are NOT part of the state — import keeps this
  /// hierarchy's own bindings.
  struct State {
    std::vector<SetAssocCache> l1;
    std::vector<SetAssocCache> l2;
    std::vector<SetAssocCache> llc;
    /// Identifies this captured image, minted by export_state() from a
    /// process-wide counter. Value copies share the id legitimately (they
    /// hold the same bytes and States are never mutated after capture);
    /// 0 = unknown provenance, never eligible for the fast import below.
    std::uint64_t image_id = 0;
  };
  State export_state() const;

  /// Overwrites the live cache arrays with `state`. Re-importing the image
  /// this hierarchy last imported (matching nonzero image_id) takes the
  /// O(touched) path: each cache rewinds only the sets dirtied since — the
  /// fork-recycling hot path, where a full-plane copy of a multi-MiB LLC
  /// would otherwise dominate the whole trial (bench/perf_suite.cc's
  /// campaign section and DESIGN.md §6 quantify this).
  void import_state(const State& state);

 private:
  /// Removes `line` from the private caches of the cores in `sharers` —
  /// or of every core when the hierarchy is not inclusive.
  void back_invalidate(PhysAddr line, SharerMask sharers);

  HierarchyConfig config_;
  std::vector<std::unique_ptr<SetAssocCache>> l1_;
  std::vector<std::unique_ptr<SetAssocCache>> l2_;
  std::unique_ptr<SetAssocCache> llc_;
  /// The LLC admits every miss and tracks sharers (see the file comment).
  bool inclusive_ = false;

  /// image_id of the last State imported (or 0): gates the fast re-import.
  std::uint64_t last_import_id_ = 0;

  obs::Hub* hub_ = nullptr;
  struct LevelCounters {
    obs::Counter hits;
    obs::Counter misses;
  };
  LevelCounters l1_counters_;
  LevelCounters l2_counters_;
  LevelCounters llc_counters_;
  obs::Counter llc_evictions_;
  obs::Counter clflushes_;
};

}  // namespace meecc::cache
