// Generic physically-indexed set-associative cache (state only, no timing —
// latency is the caller's concern so the same structure serves L1/L2/LLC and
// the MEE cache).
//
// The cache composes three orthogonal policies (cache/policy.h):
//   indexing    — how a line index maps to a set (modulo / keyed / skewed)
//   replacement — which resident way a full set gives up (replacement.h)
//   fill        — which ways a requester may claim, and whether the miss is
//                 admitted at all (all / partition / random)
//
// Storage is struct-of-arrays: three contiguous planes indexed by set —
//   tag plane   tags_[set * ways + way], the full line index per way
//               (all-ones sentinel = invalid), probed as one SIMD compare
//               over the set's row (cache/tag_probe.h)
//   meta plane  valid_[set], a bitmask of occupied ways, so free-way scans,
//               occupancy and flush are O(1) bit ops per set
//   PLRU plane  plru_[set], the set's tree-PLRU direction bits packed into
//               one word, so touch/invalidate are two precomputed masks and
//               victim selection walks a register instead of chasing bytes
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/geometry.h"
#include "cache/policy.h"
#include "cache/replacement.h"
#include "common/rng.h"
#include "common/types.h"

namespace meecc::cache {

/// Core-presence bits of one LLC slot: bit c set = core c may hold the
/// line in its private caches.
using SharerMask = std::uint8_t;
inline constexpr unsigned kMaxSharerCores = 8;

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;

  double hit_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

class SetAssocCache {
 public:
  /// Composes the full policy stack named by `config`. The per-set
  /// replacement policies fork from `rng` first (one fork per set, in set
  /// order); the remainder seeds the cache-level rng used by stochastic
  /// policies (random fill admission, skewed victim selection, rekey).
  SetAssocCache(const Geometry& geometry, const PolicyConfig& config, Rng rng);

  /// Classic shape: modulo indexing, all-ways fill, `replacement`.
  SetAssocCache(const Geometry& geometry, ReplacementKind replacement, Rng rng);

  /// Deep copy (snapshot/fork support): copies all three planes and clones
  /// the policy objects so the copy replays the identical victim/admission
  /// streams. Throws CheckFailure when an externally registered policy
  /// doesn't implement clone(). Like the dirty tracking, the sharer plane
  /// belongs to the live cache, not to its image: a copy does not carry
  /// one, and copy assignment keeps the destination's (see
  /// track_sharers()). Declaring the copy pair suppresses the implicit
  /// moves, so they're re-defaulted explicitly.
  SetAssocCache(const SetAssocCache& other);
  SetAssocCache& operator=(const SetAssocCache& other);
  SetAssocCache(SetAssocCache&&) = default;
  SetAssocCache& operator=(SetAssocCache&&) = default;

  /// Probe without side effects: is the line resident?
  bool contains(PhysAddr addr) const;

  /// Lookup: on hit updates replacement state and returns true.
  /// Does NOT fill on miss (call fill()).
  bool lookup(PhysAddr addr);

  /// Inserts the line, evicting if needed. Returns the evicted line's base
  /// address, if a valid line was displaced. `allowed` restricts candidate
  /// victim ways and is intersected with the fill policy's mask for
  /// `requester` (the line itself may still hit in a disallowed way). A
  /// stochastic fill policy may decline the miss entirely (no install, no
  /// eviction).
  std::optional<PhysAddr> fill(PhysAddr addr, WayMask allowed = kAllWays,
                               CoreId requester = CoreId{0});

  /// fill() for a line the caller just observed missing (its lookup()
  /// returned false and nothing touched the cache since): skips the
  /// redundant residency probe that fill() runs before picking a victim.
  /// Behavior is otherwise identical to fill().
  std::optional<PhysAddr> fill_after_miss(PhysAddr addr,
                                          WayMask allowed = kAllWays,
                                          CoreId requester = CoreId{0});

  /// Convenience: lookup, then fill on miss. Returns true on hit.
  bool access(PhysAddr addr, WayMask allowed = kAllWays,
              CoreId requester = CoreId{0});

  /// Removes the line if present (clflush / back-invalidation).
  bool invalidate(PhysAddr addr);

  /// Sharer plane: one SharerMask per slot, like Intel's core-valid bits,
  /// kept only by an inclusive LLC (Hierarchy turns it on; `all_cores` has
  /// one bit per core). A bit may be stale — the core's private copy left
  /// on its own — but is never missing, so invalidating the marked cores
  /// alone removes every private copy. The plane is not part of the cache
  /// image: copies and the snapshot wire format leave it out. Restoring a
  /// tracking cache from an image — copy assignment or fast_rewind_to() —
  /// marks each restored line as shared by all cores, a superset that
  /// stays exact; the slot's next fill makes its mask precise again. The
  /// plane stays complete only while the owner reaches the cache through
  /// the *_shared calls below (fill() of a resident line marks nobody).
  void track_sharers(SharerMask all_cores);
  bool tracks_sharers() const { return !sharers_.empty(); }

  /// lookup() that, on a hit, also marks `core` a sharer of the line.
  bool lookup_shared(PhysAddr addr, CoreId core);

  /// A line displaced by fill_shared_after_miss(), with its sharers (0 when
  /// the plane is off).
  struct Eviction {
    PhysAddr line;
    SharerMask sharers = 0;
  };
  /// fill_after_miss(addr, kAllWays, core) that makes `core` the installed
  /// line's only sharer and reports the displaced line's sharers.
  std::optional<Eviction> fill_shared_after_miss(PhysAddr addr, CoreId core);

  /// invalidate() that returns the removed line's sharers (0 when the plane
  /// is off), or nullopt when the line was absent.
  std::optional<SharerMask> invalidate_shared(PhysAddr addr);

  /// The line's sharers; 0 when absent or the plane is off.
  SharerMask sharers_of(PhysAddr addr) const;

  void flush_all();

  /// Flush everything and install a fresh indexing key (CEASER-style
  /// rekey): residents mapped under the old key would be unfindable, so
  /// correctness requires the flush. No-op key-wise for keyless indexing.
  void rekey();

  const Geometry& geometry() const { return geometry_; }
  const IndexingPolicy& indexing() const { return *indexing_; }
  const FillPolicy& fill_policy() const { return *fill_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats();

  /// Number of valid lines currently in `set` (for tests / introspection).
  std::uint32_t occupancy(std::uint64_t set) const;

  /// Resident line base addresses in `set`, in way order.
  std::vector<PhysAddr> resident_lines(std::uint64_t set) const;

  /// Cumulative conflict evictions per set — the defender-visible signature
  /// a covert channel cannot avoid concentrating into its contested set
  /// (channel/detector.h).
  const std::vector<std::uint64_t>& evictions_per_set() const {
    return set_evictions_;
  }

  /// Snapshot wire format: writes / overwrites the mutable payload (tag and
  /// meta planes, PLRU words or per-set policy state, indexing key, per-set
  /// eviction tallies, stats, cache-level RNG). decode_state() runs on a
  /// cache freshly constructed from the same geometry + config — the shape
  /// (plane sizes, policy kinds, precomputed masks) comes from construction,
  /// never from the wire.
  void encode_state(io::Writer& w) const;
  void decode_state(io::Reader& r);

  /// O(touched) rewind for the snapshot-restore hot path. Precondition
  /// (the caller's to guarantee — Hierarchy::import_state keys it on the
  /// State image id): this cache was byte-identical to `baseline` the last
  /// time its dirty tracking was reset, and has only been mutated through
  /// its own members since. Copies back just the sets dirtied since then,
  /// plus the (tiny) stats and RNG, instead of the full planes. Returns
  /// false without touching anything when the per-set path cannot prove
  /// itself sound — tracking was widened to "everything" (flush_all, rekey,
  /// reset_stats, decode_state) or the replacement policy keeps out-of-plane
  /// state (non-tree-PLRU) — and the caller must full-copy instead.
  bool fast_rewind_to(const SetAssocCache& baseline);

  /// Declares the current contents a clean baseline image: clears the
  /// dirty-set list. Called after any full overwrite (copy assignment and
  /// fast_rewind_to do it themselves).
  void reset_dirty_tracking();

 private:
  /// Empty-slot sentinel. Slots store the full line index (addr /
  /// line_size) whole — a truncated tag cannot reconstruct the evicted
  /// address under a keyed permutation — with this value marking an invalid
  /// way. All-ones is unreachable as a real index for any line size > 1,
  /// and folding validity into the index keeps each set's ways in one
  /// compact 8-byte-per-way row for the SIMD tag probe.
  static constexpr std::uint64_t kInvalidLine = ~std::uint64_t{0};

  struct Slot {
    std::uint64_t set = 0;
    std::uint32_t way = 0;
  };

  std::uint64_t& tag_at(std::uint64_t set, std::uint32_t way);
  std::uint64_t tag_at(std::uint64_t set, std::uint32_t way) const;
  std::optional<Slot> find_slot(std::uint64_t line) const;
  /// lookup() returning the hit slot.
  std::optional<Slot> lookup_slot(PhysAddr addr);
  Slot pick_victim(std::uint64_t line, WayMask allowed);
  /// Installs `addr`; on a sharer-tracking cache the slot's mask becomes
  /// the requester alone and a displaced line's old mask lands in
  /// `evicted_sharers` (when non-null).
  std::optional<PhysAddr> fill_impl(PhysAddr addr, WayMask allowed,
                                    CoreId requester, bool check_resident,
                                    SharerMask* evicted_sharers = nullptr);
  std::uint64_t slot_index(Slot slot) const {
    return slot.set * geometry_.ways + slot.way;
  }

  /// Replacement-state entry points. Tree-PLRU — the default policy on
  /// every modelled cache — lives packed in the plru_ plane and is handled
  /// inline; other policies dispatch to the per-set policy_ objects.
  void policy_touch(std::uint64_t set, std::uint32_t way);
  std::uint32_t policy_victim(std::uint64_t set);
  void policy_invalidate(std::uint64_t set, std::uint32_t way);

  /// Precomputes the per-way PLRU update masks (the node path and bit
  /// values a touch/invalidate writes depend only on the way index).
  void build_plru_masks();

  /// Re-derives the devirtualized shortcuts (way_dependent_, direct set
  /// mask) from indexing_. Called at construction and after rekey().
  void refresh_indexing_shortcuts();
  std::uint64_t line_index_of(PhysAddr addr) const {
    return addr.raw >> line_shift_;
  }

  Geometry geometry_;
  std::unique_ptr<IndexingPolicy> indexing_;
  std::unique_ptr<FillPolicy> fill_;
  /// Tag plane: sets * ways line indices, row-major by set.
  std::vector<std::uint64_t> tags_;
  /// Meta plane: per-set bitmask of occupied ways (bit w == way w valid).
  /// Mirrors tags_ != kInvalidLine; kept coherent by fill/invalidate/flush.
  std::vector<std::uint64_t> valid_;
  /// One policy object per set — empty when flat_plru_ is set (the
  /// per-set RNG forks are still drawn so sibling streams don't shift).
  std::vector<std::unique_ptr<ReplacementPolicy>> policy_;
  /// PLRU plane: tree-PLRU direction bits, (ways - 1) of them packed into
  /// one word per set (bit i == node i), when flat_plru_. Same update rules
  /// as replacement.cc's TreePlruPolicy, kept packed so a touch is one
  /// load, two masks and one store.
  std::vector<std::uint64_t> plru_;
  /// touch(way): plru = (plru & ~plru_path_[way]) | plru_touch_[way];
  /// invalidate(way): ... | plru_point_[way] (points AT the way instead).
  std::vector<std::uint64_t> plru_path_;
  std::vector<std::uint64_t> plru_touch_;
  std::vector<std::uint64_t> plru_point_;
  bool flat_plru_ = false;
  std::uint32_t plru_depth_ = 0;  // log2(ways)
  std::vector<std::uint64_t> set_evictions_;
  /// Sharer plane (see track_sharers()): sets * ways masks, row-major like
  /// tags_; empty when off. all_sharers_ is the mask of every core.
  std::vector<SharerMask> sharers_;
  SharerMask all_sharers_ = 0;
  CacheStats stats_;
  /// log2(line_size); validate() guarantees a power-of-two line size, so
  /// every addr→line-index division on the access paths becomes a shift.
  std::uint32_t line_shift_ = 0;
  /// Low `ways` bits set — the universe for valid_/allowed intersections.
  std::uint64_t ways_mask_ = 0;
  bool way_dependent_ = false;
  /// When the indexing policy is the classic modulo design its set mapping
  /// is inlined as `line & direct_mask_`, skipping the virtual call on
  /// every lookup/fill/invalidate (the dominant cost in covert-channel
  /// runs, which are one long clflush+probe loop).
  bool direct_modulo_ = false;
  std::uint64_t direct_mask_ = 0;
  /// True for the default "all" fill policy: every miss admitted, all ways
  /// allowed, so fill() skips both of its per-miss virtual calls.
  bool fill_passthrough_ = false;
  /// Forked last in the constructor; the default (modulo / all-ways) stack
  /// never draws from it, keeping legacy streams byte-identical.
  Rng rng_;

  /// Dirty-set tracking for fast_rewind_to(): every mutating access stamps
  /// its set with the current generation and (first time per generation)
  /// records it in dirty_sets_. A generation bump is the O(1) "mark all
  /// clean"; dirty_sets_ keeps its capacity across trials so steady-state
  /// tracking allocates nothing. The stamp plane is allocated on the first
  /// mutation, so never-mutated copies (snapshot images) don't carry one.
  void mark_dirty(std::uint64_t set) {
    if (set_stamp_.empty()) set_stamp_.assign(valid_.size(), 0);
    if (set_stamp_[set] == stamp_gen_) return;
    set_stamp_[set] = stamp_gen_;
    dirty_sets_.push_back(static_cast<std::uint32_t>(set));
  }
  std::vector<std::uint32_t> dirty_sets_;
  std::vector<std::uint64_t> set_stamp_;
  std::uint64_t stamp_gen_ = 1;
  /// Set by whole-cache mutations that bypass per-set tracking; forces the
  /// next restore to full-copy.
  bool all_dirty_ = false;
};

}  // namespace meecc::cache
