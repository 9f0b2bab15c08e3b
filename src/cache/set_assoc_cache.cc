#include "cache/set_assoc_cache.h"

#include <algorithm>
#include <array>
#include <bit>

#include "cache/tag_probe.h"
#include "common/bytes.h"
#include "common/check.h"

namespace meecc::cache {

SetAssocCache::SetAssocCache(const Geometry& geometry,
                             const PolicyConfig& config, Rng rng)
    : geometry_(geometry) {
  geometry_.validate();
  indexing_ = make_indexing_policy(config, geometry_);
  fill_ = make_fill_policy(config, geometry_);
  const auto replacement = replacement_from_name(config.replacement);
  const auto sets = geometry_.sets();
  tags_.assign(sets * geometry_.ways, kInvalidLine);
  valid_.assign(sets, 0);
  set_evictions_.assign(sets, 0);
  ways_mask_ = geometry_.ways >= 64 ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << geometry_.ways) - 1;
  flat_plru_ = replacement == ReplacementKind::kTreePlru;
  if (flat_plru_) {
    MEECC_CHECK(std::has_single_bit(geometry_.ways));
    plru_depth_ = static_cast<std::uint32_t>(std::countr_zero(geometry_.ways));
    plru_.assign(sets, 0);
    build_plru_masks();
  } else {
    policy_.reserve(sets);
  }
  // Fork order is load-bearing: one fork per set first (exactly the legacy
  // stream), then the leftover parent state seeds the cache-level rng.
  // Tree-PLRU never consumes its fork, but the forks must still be drawn so
  // the parent stream stays byte-identical to the policy-object layout.
  for (std::uint64_t s = 0; s < sets; ++s) {
    Rng set_rng = rng.fork();
    if (!flat_plru_)
      policy_.push_back(
          make_policy(replacement, geometry_.ways, std::move(set_rng)));
  }
  rng_ = std::move(rng);
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(
      static_cast<std::uint64_t>(geometry_.line_size)));
  fill_passthrough_ = fill_->passthrough();
  refresh_indexing_shortcuts();
}

void SetAssocCache::build_plru_masks() {
  // The tree nodes a touch/invalidate of `way` rewrites — and the values it
  // writes — depend only on the way index, so the root-to-leaf walk runs
  // once per way here instead of once per access. Node i of the implicit
  // tree (children 2i+1 / 2i+2, as in replacement.cc's TreePlruPolicy) is
  // bit i of the set's packed word.
  const std::uint32_t ways = geometry_.ways;
  plru_path_.assign(ways, 0);
  plru_touch_.assign(ways, 0);
  plru_point_.assign(ways, 0);
  for (std::uint32_t way = 0; way < ways; ++way) {
    std::uint32_t node = 0;
    for (std::uint32_t d = plru_depth_; d-- > 0;) {
      const std::uint32_t went_right = (way >> d) & 1;
      plru_path_[way] |= std::uint64_t{1} << node;
      // touch points every node on the path AWAY from the way (bit =
      // 1 - went_right); invalidate points the path AT it (bit = went_right)
      // so the freed slot is refilled first.
      if (!went_right) plru_touch_[way] |= std::uint64_t{1} << node;
      if (went_right) plru_point_[way] |= std::uint64_t{1} << node;
      node = 2 * node + 1 + went_right;
    }
  }
}

void SetAssocCache::policy_touch(std::uint64_t set, std::uint32_t way) {
  if (!flat_plru_) {
    policy_[set]->touch(way);
    return;
  }
  plru_[set] = (plru_[set] & ~plru_path_[way]) | plru_touch_[way];
}

std::uint32_t SetAssocCache::policy_victim(std::uint64_t set) {
  if (!flat_plru_) return policy_[set]->victim();
  const std::uint64_t bits = plru_[set];
  std::uint32_t node = 0;
  std::uint32_t way = 0;
  for (std::uint32_t d = plru_depth_; d-- > 0;) {
    const std::uint32_t go_right =
        static_cast<std::uint32_t>((bits >> node) & 1);
    way = (way << 1) | go_right;
    node = 2 * node + 1 + go_right;
  }
  return way;
}

void SetAssocCache::policy_invalidate(std::uint64_t set, std::uint32_t way) {
  if (!flat_plru_) {
    policy_[set]->invalidate(way);
    return;
  }
  plru_[set] = (plru_[set] & ~plru_path_[way]) | plru_point_[way];
}

void SetAssocCache::refresh_indexing_shortcuts() {
  way_dependent_ = indexing_->way_dependent();
  const auto mask = indexing_->modulo_mask();
  direct_modulo_ = mask.has_value();
  direct_mask_ = mask.value_or(0);
}

SetAssocCache::SetAssocCache(const Geometry& geometry,
                             ReplacementKind replacement, Rng rng)
    : SetAssocCache(
          geometry,
          PolicyConfig{.replacement = std::string(to_string(replacement))},
          std::move(rng)) {}

SetAssocCache::SetAssocCache(const SetAssocCache& other)
    : geometry_(other.geometry_),
      indexing_(other.indexing_->clone()),
      fill_(other.fill_->clone()),
      tags_(other.tags_),
      valid_(other.valid_),
      plru_(other.plru_),
      plru_path_(other.plru_path_),
      plru_touch_(other.plru_touch_),
      plru_point_(other.plru_point_),
      flat_plru_(other.flat_plru_),
      plru_depth_(other.plru_depth_),
      set_evictions_(other.set_evictions_),
      stats_(other.stats_),
      line_shift_(other.line_shift_),
      ways_mask_(other.ways_mask_),
      way_dependent_(other.way_dependent_),
      direct_modulo_(other.direct_modulo_),
      direct_mask_(other.direct_mask_),
      fill_passthrough_(other.fill_passthrough_),
      rng_(other.rng_) {
  // The copy starts life as a clean image of `other`; it does not inherit
  // the donor's dirty set (which describes the donor's drift from ITS
  // baseline, not this copy's), and its stamp plane stays unallocated
  // until its first mutation — a snapshot image never has one.
  MEECC_CHECK_MSG(indexing_ != nullptr && fill_ != nullptr,
                  "cache policy does not implement clone(); snapshot/fork "
                  "needs cloneable policies");
  policy_.reserve(other.policy_.size());
  for (const auto& p : other.policy_) policy_.push_back(p->clone());
}

SetAssocCache& SetAssocCache::operator=(const SetAssocCache& other) {
  if (this != &other) {
    SetAssocCache copy(other);
    // The live cache keeps its sharer plane; every restored line is marked
    // shared by all cores.
    copy.sharers_ = std::move(sharers_);
    copy.all_sharers_ = all_sharers_;
    std::fill(copy.sharers_.begin(), copy.sharers_.end(), all_sharers_);
    *this = std::move(copy);
  }
  return *this;
}

std::uint64_t& SetAssocCache::tag_at(std::uint64_t set, std::uint32_t way) {
  return tags_[set * geometry_.ways + way];
}

std::uint64_t SetAssocCache::tag_at(std::uint64_t set,
                                    std::uint32_t way) const {
  return tags_[set * geometry_.ways + way];
}

std::optional<SetAssocCache::Slot> SetAssocCache::find_slot(
    std::uint64_t line) const {
  if (!way_dependent_) {
    // Way-independent indexing probes a single contiguous row of the tag
    // plane in one data-parallel compare. At most one way can match
    // (residents are unique per set), so the mask identifies the hit way
    // directly; invalid slots hold the sentinel and never match.
    const auto set =
        direct_modulo_ ? (line & direct_mask_) : indexing_->set_of(line, 0);
    const std::uint64_t match = detail::tag_probe(
        tags_.data() + set * geometry_.ways, geometry_.ways, line);
    if (match == 0) return std::nullopt;
    return Slot{set, static_cast<std::uint32_t>(std::countr_zero(match))};
  }
  // Skewed indexing: each way indexes its own set, so the candidates are
  // strided across the tag plane and the probe stays scalar.
  for (std::uint32_t w = 0; w < geometry_.ways; ++w) {
    const auto set = indexing_->set_of(line, w);
    if (tag_at(set, w) == line) return Slot{set, w};
  }
  return std::nullopt;
}

bool SetAssocCache::contains(PhysAddr addr) const {
  return find_slot(line_index_of(addr)).has_value();
}

std::optional<SetAssocCache::Slot> SetAssocCache::lookup_slot(PhysAddr addr) {
  const auto slot = find_slot(line_index_of(addr));
  if (!slot) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  policy_touch(slot->set, slot->way);
  mark_dirty(slot->set);
  return slot;
}

bool SetAssocCache::lookup(PhysAddr addr) {
  return lookup_slot(addr).has_value();
}

SetAssocCache::Slot SetAssocCache::pick_victim(std::uint64_t line,
                                               WayMask allowed) {
  if (way_dependent_) {
    // Skewed indexing: candidate victims live in different sets per way, so
    // no single per-set replacement state spans them. Prefer an invalid
    // allowed slot, else evict a uniformly random allowed way — the standard
    // choice for skewed caches.
    for (std::uint32_t w = 0; w < geometry_.ways; ++w) {
      if (!(allowed & (WayMask{1} << w))) continue;
      const auto set = indexing_->set_of(line, w);
      if (!(valid_[set] & (std::uint64_t{1} << w))) return Slot{set, w};
    }
    std::array<std::uint32_t, 64> candidates{};
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < geometry_.ways && n < candidates.size(); ++w)
      if (allowed & (WayMask{1} << w)) candidates[n++] = w;
    const auto w = candidates[rng_.next_below(n)];
    return Slot{indexing_->set_of(line, w), w};
  }

  const auto set =
      direct_modulo_ ? (line & direct_mask_) : indexing_->set_of(line, 0);

  // Prefer an invalid allowed way: lowest set bit of the free mask matches
  // the old ascending-way scan exactly.
  const std::uint64_t free_allowed = ~valid_[set] & allowed & ways_mask_;
  if (free_allowed)
    return Slot{set, static_cast<std::uint32_t>(std::countr_zero(free_allowed))};

  // Ask the policy, skipping disallowed ways by re-touching them so the
  // policy walks elsewhere. Bounded retries keep this terminating even for
  // degenerate masks; fall back to the lowest allowed way.
  std::optional<std::uint32_t> chosen;
  for (int attempt = 0; attempt < 32 && !chosen; ++attempt) {
    const auto v = policy_victim(set);
    if (allowed & (WayMask{1} << v)) {
      chosen = v;
    } else {
      policy_touch(set, v);
    }
  }
  if (!chosen) {
    for (std::uint32_t w = 0; w < geometry_.ways; ++w) {
      if (allowed & (WayMask{1} << w)) {
        chosen = w;
        break;
      }
    }
  }
  return Slot{set, *chosen};
}

std::optional<PhysAddr> SetAssocCache::fill(PhysAddr addr, WayMask allowed,
                                            CoreId requester) {
  return fill_impl(addr, allowed, requester, /*check_resident=*/true);
}

std::optional<PhysAddr> SetAssocCache::fill_after_miss(PhysAddr addr,
                                                       WayMask allowed,
                                                       CoreId requester) {
  return fill_impl(addr, allowed, requester, /*check_resident=*/false);
}

std::optional<PhysAddr> SetAssocCache::fill_impl(PhysAddr addr, WayMask allowed,
                                                 CoreId requester,
                                                 bool check_resident,
                                                 SharerMask* evicted_sharers) {
  if (!fill_passthrough_) allowed &= fill_->allowed_ways(requester);
  MEECC_CHECK_MSG(allowed != 0, "fill with empty way mask");
  const auto line = line_index_of(addr);

  if (check_resident) {
    if (const auto slot = find_slot(line)) {
      policy_touch(slot->set, slot->way);  // already resident: refresh
      mark_dirty(slot->set);
      return std::nullopt;
    }
  }

  // A stochastic fill policy may decline the miss: nothing installed,
  // nothing evicted. Deterministic policies never consume rng_ here.
  if (!fill_passthrough_ && !fill_->admits(requester, rng_))
    return std::nullopt;

  const auto victim = pick_victim(line, allowed);
  auto& victim_tag = tag_at(victim.set, victim.way);
  const std::uint64_t way_bit = std::uint64_t{1} << victim.way;
  std::optional<PhysAddr> evicted;
  if (valid_[victim.set] & way_bit) {
    // Exactly one eviction per displaced VALID line: a slot freed by
    // invalidate() (or picked while still empty) must not count.
    ++stats_.evictions;
    ++set_evictions_[victim.set];
    evicted = PhysAddr{victim_tag * geometry_.line_size};
  }
  victim_tag = line;
  valid_[victim.set] |= way_bit;
  if (!sharers_.empty()) {
    SharerMask& sharers = sharers_[slot_index(victim)];
    if (evicted && evicted_sharers != nullptr) *evicted_sharers = sharers;
    sharers = SharerMask(1u << requester.value);
  }
  policy_touch(victim.set, victim.way);
  mark_dirty(victim.set);
  return evicted;
}

bool SetAssocCache::access(PhysAddr addr, WayMask allowed, CoreId requester) {
  if (lookup(addr)) return true;
  fill(addr, allowed, requester);
  return false;
}

bool SetAssocCache::invalidate(PhysAddr addr) {
  return invalidate_shared(addr).has_value();
}

void SetAssocCache::track_sharers(SharerMask all_cores) {
  all_sharers_ = all_cores;
  sharers_.assign(tags_.size(), all_cores);
}

bool SetAssocCache::lookup_shared(PhysAddr addr, CoreId core) {
  const auto slot = lookup_slot(addr);
  if (!slot) return false;
  if (!sharers_.empty())
    sharers_[slot_index(*slot)] |= SharerMask(1u << core.value);
  return true;
}

std::optional<SetAssocCache::Eviction> SetAssocCache::fill_shared_after_miss(
    PhysAddr addr, CoreId core) {
  SharerMask sharers = 0;
  const auto evicted = fill_impl(addr, kAllWays, core,
                                 /*check_resident=*/false, &sharers);
  if (!evicted) return std::nullopt;
  return Eviction{*evicted, sharers};
}

std::optional<SharerMask> SetAssocCache::invalidate_shared(PhysAddr addr) {
  const auto slot = find_slot(line_index_of(addr));
  if (!slot) return std::nullopt;
  tag_at(slot->set, slot->way) = kInvalidLine;
  valid_[slot->set] &= ~(std::uint64_t{1} << slot->way);
  policy_invalidate(slot->set, slot->way);
  mark_dirty(slot->set);
  ++stats_.invalidations;
  return sharers_.empty() ? SharerMask{0} : sharers_[slot_index(*slot)];
}

SharerMask SetAssocCache::sharers_of(PhysAddr addr) const {
  if (sharers_.empty()) return 0;
  const auto slot = find_slot(line_index_of(addr));
  return slot ? sharers_[slot_index(*slot)] : SharerMask{0};
}

void SetAssocCache::flush_all() {
  // Touches an unbounded slice of the planes; per-set tracking would just
  // enumerate everything, so widen to the full-copy restore path instead.
  all_dirty_ = true;
  // The meta plane makes this O(occupied lines): a cold set is one load
  // and a skip, which matters because clflush-heavy trials re-flush whole
  // hierarchies between runs.
  const auto sets = geometry_.sets();
  for (std::uint64_t s = 0; s < sets; ++s) {
    std::uint64_t occupied = valid_[s];
    if (!occupied) continue;
    std::uint64_t* row = tags_.data() + s * geometry_.ways;
    while (occupied) {
      const auto w = static_cast<std::uint32_t>(std::countr_zero(occupied));
      occupied &= occupied - 1;
      row[w] = kInvalidLine;
      policy_invalidate(s, w);
      ++stats_.invalidations;
    }
    valid_[s] = 0;
  }
}

void SetAssocCache::rekey() {
  flush_all();
  indexing_->rekey(rng_.next_u64());
  refresh_indexing_shortcuts();
}

void SetAssocCache::reset_stats() {
  // Zeroes every per-set tally below, outside per-set tracking.
  all_dirty_ = true;
  stats_ = CacheStats{};
  // The per-set tallies feed the detector and must stay consistent with
  // stats_.evictions (property_test asserts the sum); resetting one without
  // the other let them drift.
  std::fill(set_evictions_.begin(), set_evictions_.end(), 0);
}

void SetAssocCache::encode_state(io::Writer& w) const {
  if (const auto key = indexing_->current_key()) {
    w.u8(1);
    w.u64(*key);
  } else {
    w.u8(0);
  }
  for (const std::uint64_t tag : tags_) w.u64(tag);
  for (const std::uint64_t mask : valid_) w.u64(mask);
  if (flat_plru_) {
    for (const std::uint64_t word : plru_) w.u64(word);
  } else {
    for (const auto& policy : policy_) policy->encode_state(w);
  }
  for (const std::uint64_t tally : set_evictions_) w.u64(tally);
  w.u64(stats_.hits);
  w.u64(stats_.misses);
  w.u64(stats_.evictions);
  w.u64(stats_.invalidations);
  encode_rng(w, rng_);
}

void SetAssocCache::decode_state(io::Reader& r) {
  if (r.u8() != 0) {
    // Replaying the stored key through rekey() keeps the policy's key
    // private; the derived shortcuts must be rebuilt afterwards.
    indexing_->rekey(r.u64());
    refresh_indexing_shortcuts();
  }
  for (auto& tag : tags_) tag = r.u64();
  for (auto& mask : valid_) mask = r.u64();
  if (flat_plru_) {
    for (auto& word : plru_) word = r.u64();
  } else {
    for (auto& policy : policy_) policy->decode_state(r);
  }
  for (auto& tally : set_evictions_) tally = r.u64();
  stats_.hits = r.u64();
  stats_.misses = r.u64();
  stats_.evictions = r.u64();
  stats_.invalidations = r.u64();
  rng_ = decode_rng(r);
  // The wire replaced the whole image; any baseline linkage is stale.
  all_dirty_ = true;
}

void SetAssocCache::reset_dirty_tracking() {
  dirty_sets_.clear();
  ++stamp_gen_;
  all_dirty_ = false;
}

bool SetAssocCache::fast_rewind_to(const SetAssocCache& baseline) {
  // Non-tree-PLRU replacement keeps per-set policy objects whose rewind
  // would clone allocations; rekey also swaps the indexing key, which lives
  // outside the planes. Both are rare off the hot path — full-copy there.
  if (all_dirty_ || !flat_plru_ || !baseline.flat_plru_ ||
      tags_.size() != baseline.tags_.size())
    return false;
  const std::uint32_t ways = geometry_.ways;
  const bool sharers = !sharers_.empty();
  for (const std::uint32_t s : dirty_sets_) {
    std::copy_n(baseline.tags_.data() + std::uint64_t{s} * ways, ways,
                tags_.data() + std::uint64_t{s} * ways);
    // Untouched sets keep the all-cores marks their last restore wrote.
    if (sharers)
      std::fill_n(sharers_.data() + std::uint64_t{s} * ways, ways,
                  all_sharers_);
    valid_[s] = baseline.valid_[s];
    plru_[s] = baseline.plru_[s];
    set_evictions_[s] = baseline.set_evictions_[s];
  }
  stats_ = baseline.stats_;
  rng_ = baseline.rng_;
  reset_dirty_tracking();
  return true;
}

std::uint32_t SetAssocCache::occupancy(std::uint64_t set) const {
  MEECC_CHECK(set < geometry_.sets());
  return static_cast<std::uint32_t>(std::popcount(valid_[set]));
}

std::vector<PhysAddr> SetAssocCache::resident_lines(std::uint64_t set) const {
  MEECC_CHECK(set < geometry_.sets());
  std::vector<PhysAddr> result;
  std::uint64_t occupied = valid_[set];
  while (occupied) {
    const auto w = static_cast<std::uint32_t>(std::countr_zero(occupied));
    occupied &= occupied - 1;
    result.push_back(PhysAddr{tag_at(set, w) * geometry_.line_size});
  }
  return result;
}

}  // namespace meecc::cache
