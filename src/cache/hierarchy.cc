#include "cache/hierarchy.h"

#include <atomic>
#include <bit>

#include "common/check.h"

namespace meecc::cache {

std::string_view to_string(HitLevel level) {
  switch (level) {
    case HitLevel::kL1:
      return "L1";
    case HitLevel::kL2:
      return "L2";
    case HitLevel::kLlc:
      return "LLC";
    case HitLevel::kMemory:
      return "memory";
  }
  return "?";
}

Hierarchy::Hierarchy(const HierarchyConfig& config, unsigned core_count,
                     Rng rng, obs::Hub* hub)
    : config_(config), hub_(hub) {
  MEECC_CHECK(core_count > 0);
  for (unsigned c = 0; c < core_count; ++c) {
    l1_.push_back(std::make_unique<SetAssocCache>(config_.l1,
                                                  config_.l1_policy,
                                                  rng.fork()));
    l2_.push_back(std::make_unique<SetAssocCache>(config_.l2,
                                                  config_.l2_policy,
                                                  rng.fork()));
  }
  llc_ = std::make_unique<SetAssocCache>(config_.llc, config_.llc_policy,
                                         rng.fork());
  inclusive_ = llc_->fill_policy().admits_every_miss() &&
               core_count <= kMaxSharerCores;
  if (inclusive_) llc_->track_sharers(SharerMask((1u << core_count) - 1));
  if (hub_ != nullptr) {
    auto& registry = hub_->registry();
    l1_counters_ = {registry.counter("cache.l1", "hits"),
                    registry.counter("cache.l1", "misses")};
    l2_counters_ = {registry.counter("cache.l2", "hits"),
                    registry.counter("cache.l2", "misses")};
    llc_counters_ = {registry.counter("cache.llc", "hits"),
                     registry.counter("cache.llc", "misses")};
    llc_evictions_ = registry.counter("cache.llc", "evictions");
    clflushes_ = registry.counter("cache", "clflushes");
  }
}

HierarchyResult Hierarchy::access(CoreId core, PhysAddr addr, Cycles now) {
  MEECC_CHECK(core.value < l1_.size());
  const PhysAddr line = addr.line_base();
  auto& l1 = *l1_[core.value];
  auto& l2 = *l2_[core.value];

  if (l1.lookup(line)) {
    l1_counters_.hits.inc();
    return {HitLevel::kL1, config_.l1_latency};
  }
  l1_counters_.misses.inc();

  if (l2.lookup(line)) {
    l2_counters_.hits.inc();
    // Every fill below a missed level uses fill_after_miss: the lookup
    // above just proved the line absent and nothing touched that cache in
    // between, so the residency re-probe inside fill() would be wasted.
    l1.fill_after_miss(line);
    return {HitLevel::kL2, config_.l2_latency};
  }
  l2_counters_.misses.inc();

  if (llc_->lookup_shared(line, core)) {
    llc_counters_.hits.inc();
    l2.fill_after_miss(line);
    l1.fill_after_miss(line);
    return {HitLevel::kLlc, config_.llc_latency};
  }
  llc_counters_.misses.inc();

  // Miss everywhere: fill inclusive, honoring back-invalidation. The LLC
  // fill carries the requesting core so a partitioned/random fill policy on
  // the shared level can tell tenants apart.
  if (const auto evicted = llc_->fill_shared_after_miss(line, core)) {
    llc_evictions_.inc();
    if (hub_ != nullptr && hub_->tracing())
      hub_->trace({.cycle = now,
                   .component = obs::Component::kCache,
                   .core = core.value,
                   .addr = evicted->line.raw,
                   .kind = "evict",
                   .outcome = "LLC"});
    back_invalidate(evicted->line, evicted->sharers);
  }
  // Still safe after the LLC fill: back_invalidate only removed the evicted
  // victim, which cannot be `line` (it was absent when the victim was
  // picked), so `line` remains missing from L2/L1 here.
  l2.fill_after_miss(line);
  l1.fill_after_miss(line);
  return {HitLevel::kMemory, config_.llc_latency};
}

Cycles Hierarchy::clflush(PhysAddr addr) {
  const PhysAddr line = addr.line_base();
  clflushes_.inc();
  const auto sharers = llc_->invalidate_shared(line);
  // Inclusive: a line the LLC does not hold has no private copies either.
  if (sharers || !inclusive_) back_invalidate(line, sharers.value_or(0));
  return config_.clflush_latency;
}

bool Hierarchy::resident(PhysAddr addr) const {
  const PhysAddr line = addr.line_base();
  if (llc_->contains(line)) return true;
  for (std::size_t c = 0; c < l1_.size(); ++c) {
    if (l1_[c]->contains(line) || l2_[c]->contains(line)) return true;
  }
  return false;
}

void Hierarchy::back_invalidate(PhysAddr line, SharerMask sharers) {
  // Invalidating an absent line has no side effects, so probing only the
  // marked cores (stale bits included) leaves exactly the state a probe of
  // every core would.
  if (!inclusive_) {
    for (std::size_t c = 0; c < l1_.size(); ++c) {
      l1_[c]->invalidate(line);
      l2_[c]->invalidate(line);
    }
    return;
  }
  for (; sharers != 0; sharers &= SharerMask(sharers - 1)) {
    const auto c = static_cast<std::size_t>(std::countr_zero(sharers));
    l1_[c]->invalidate(line);
    l2_[c]->invalidate(line);
  }
}

void Hierarchy::flush_all() {
  llc_->flush_all();
  for (std::size_t c = 0; c < l1_.size(); ++c) {
    l1_[c]->flush_all();
    l2_[c]->flush_all();
  }
}

Hierarchy::State Hierarchy::export_state() const {
  static std::atomic<std::uint64_t> next_image_id{1};
  State state;
  state.image_id = next_image_id.fetch_add(1, std::memory_order_relaxed);
  state.l1.reserve(l1_.size());
  state.l2.reserve(l2_.size());
  for (std::size_t c = 0; c < l1_.size(); ++c) {
    state.l1.push_back(*l1_[c]);
    state.l2.push_back(*l2_[c]);
  }
  state.llc.push_back(*llc_);
  return state;
}

void Hierarchy::import_state(const State& state) {
  MEECC_CHECK(state.l1.size() == l1_.size() && state.l2.size() == l2_.size() &&
              state.llc.size() == 1);
  // Re-importing the image we already hold (modulo whatever ran since):
  // rewind only the dirtied sets. A cache that can't prove the per-set
  // path sound (flush_all ran, non-PLRU policy) falls back to full copy
  // individually; either way the result is the imported image.
  const bool rewind = state.image_id != 0 && state.image_id == last_import_id_;
  const auto apply = [rewind](SetAssocCache& live, const SetAssocCache& src) {
    if (rewind && live.fast_rewind_to(src)) return;
    live = src;
  };
  for (std::size_t c = 0; c < l1_.size(); ++c) {
    apply(*l1_[c], state.l1[c]);
    apply(*l2_[c], state.l2[c]);
  }
  apply(*llc_, state.llc[0]);
  last_import_id_ = state.image_id;
}

}  // namespace meecc::cache
