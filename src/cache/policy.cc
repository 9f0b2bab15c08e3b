#include "cache/policy.h"

#include <algorithm>
#include <bit>
#include <map>

#include "common/check.h"

namespace meecc::cache {

std::uint64_t keyed_line_permutation(std::uint64_t line, std::uint64_t key) {
  // Every step is a bijection on u64: add, xor-shift, odd-constant multiply.
  std::uint64_t x = line + key;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

WayMask way_partition_mask(std::uint32_t ways, CoreId core) {
  MEECC_CHECK_MSG(ways >= 2 && ways % 2 == 0,
                  "way partitioning needs an even way count, got " << ways);
  const WayMask low_half = (WayMask{1} << (ways / 2)) - 1;
  return core.value % 2 == 0 ? low_half : low_half << (ways / 2);
}

namespace {

std::uint64_t set_mask(const Geometry& geometry) {
  MEECC_CHECK(std::has_single_bit(geometry.sets()));
  return geometry.sets() - 1;
}

/// Classic physically-indexed cache: low line-index bits select the set.
class ModuloIndexing final : public IndexingPolicy {
 public:
  explicit ModuloIndexing(const Geometry& geometry) : mask_(set_mask(geometry)) {}

  std::string_view name() const override { return "modulo"; }
  std::uint64_t set_of(std::uint64_t line, std::uint32_t) const override {
    return line & mask_;
  }
  std::optional<std::uint64_t> modulo_mask() const override { return mask_; }

  std::unique_ptr<IndexingPolicy> clone() const override {
    return std::make_unique<ModuloIndexing>(*this);
  }

 private:
  std::uint64_t mask_;
};

/// CEASER-style keyed indexing: the line index passes through a keyed
/// permutation before the set bits are taken, so congruence classes are
/// secret and change on every rekey.
class KeyedIndexing final : public IndexingPolicy {
 public:
  KeyedIndexing(const Geometry& geometry, std::uint64_t key)
      : mask_(set_mask(geometry)), key_(key) {}

  std::string_view name() const override { return "keyed"; }
  std::uint64_t set_of(std::uint64_t line, std::uint32_t) const override {
    return keyed_line_permutation(line, key_) & mask_;
  }
  void rekey(std::uint64_t fresh_key) override { key_ = fresh_key; }
  std::optional<std::uint64_t> current_key() const override { return key_; }

  std::unique_ptr<IndexingPolicy> clone() const override {
    return std::make_unique<KeyedIndexing>(*this);
  }

 private:
  std::uint64_t mask_;
  std::uint64_t key_;
};

/// Skewed indexing: the ways split into `partitions` groups, each with its
/// own keyed permutation — an address conflicts with different addresses in
/// every group, so a single eviction set cannot cover all ways.
class SkewedIndexing final : public IndexingPolicy {
 public:
  SkewedIndexing(const Geometry& geometry, std::uint64_t key,
                 std::uint32_t partitions)
      : mask_(set_mask(geometry)),
        key_(key),
        partitions_(std::min(partitions, geometry.ways)),
        ways_per_partition_((geometry.ways + partitions_ - 1) / partitions_) {
    MEECC_CHECK_MSG(partitions_ >= 1, "skewed indexing needs >= 1 partition");
  }

  std::string_view name() const override { return "skewed"; }
  std::uint64_t set_of(std::uint64_t line, std::uint32_t way) const override {
    const std::uint64_t group = way / ways_per_partition_;
    // Distinct odd tweak per group keeps the per-group permutations
    // independent under one key.
    return keyed_line_permutation(line, key_ ^ ((2 * group + 1) *
                                                0x9e3779b97f4a7c15ULL)) &
           mask_;
  }
  bool way_dependent() const override { return partitions_ > 1; }
  void rekey(std::uint64_t fresh_key) override { key_ = fresh_key; }
  std::optional<std::uint64_t> current_key() const override { return key_; }

  std::unique_ptr<IndexingPolicy> clone() const override {
    return std::make_unique<SkewedIndexing>(*this);
  }

 private:
  std::uint64_t mask_;
  std::uint64_t key_;
  std::uint32_t partitions_;
  std::uint32_t ways_per_partition_;
};

class AllWaysFill final : public FillPolicy {
 public:
  std::string_view name() const override { return "all"; }
  bool passthrough() const override { return true; }
  bool admits_every_miss() const override { return true; }
  std::unique_ptr<FillPolicy> clone() const override {
    return std::make_unique<AllWaysFill>(*this);
  }
};

/// Way partitioning by requesting core (CATalyst-style, §5.5): even cores
/// may only claim the low half of the ways, odd cores the high half.
class PartitionFill final : public FillPolicy {
 public:
  explicit PartitionFill(std::uint32_t ways) : ways_(ways) {
    (void)way_partition_mask(ways_, CoreId{0});  // validate the shape once
  }

  std::string_view name() const override { return "partition"; }
  WayMask allowed_ways(CoreId requester) const override {
    return way_partition_mask(ways_, requester);
  }
  bool admits_every_miss() const override { return true; }

  std::unique_ptr<FillPolicy> clone() const override {
    return std::make_unique<PartitionFill>(*this);
  }

 private:
  std::uint32_t ways_;
};

/// Random fill: each miss is admitted with probability p; bypassed misses
/// leave the set untouched, which starves contention-based channels of
/// deterministic evictions at the cost of a lower hit rate.
class RandomFill final : public FillPolicy {
 public:
  explicit RandomFill(double probability) : probability_(probability) {
    MEECC_CHECK_MSG(probability_ >= 0.0 && probability_ <= 1.0,
                    "fill probability must be in [0,1], got " << probability_);
  }

  std::string_view name() const override { return "random"; }
  bool admits(CoreId, Rng& rng) override { return rng.chance(probability_); }

  std::unique_ptr<FillPolicy> clone() const override {
    return std::make_unique<RandomFill>(*this);
  }

 private:
  double probability_;
};

// Function-local registries so library init order cannot bite; built-ins
// are installed on first use and user registrations layer on top.
std::map<std::string, IndexingFactory, std::less<>>& indexing_registry() {
  static std::map<std::string, IndexingFactory, std::less<>> registry = [] {
    std::map<std::string, IndexingFactory, std::less<>> builtins;
    builtins["modulo"] = [](const PolicyConfig&, const Geometry& g) {
      return std::unique_ptr<IndexingPolicy>(new ModuloIndexing(g));
    };
    builtins["keyed"] = [](const PolicyConfig& c, const Geometry& g) {
      return std::unique_ptr<IndexingPolicy>(new KeyedIndexing(g, c.index_key));
    };
    builtins["skewed"] = [](const PolicyConfig& c, const Geometry& g) {
      return std::unique_ptr<IndexingPolicy>(
          new SkewedIndexing(g, c.index_key, c.skew_partitions));
    };
    return builtins;
  }();
  return registry;
}

std::map<std::string, FillFactory, std::less<>>& fill_registry() {
  static std::map<std::string, FillFactory, std::less<>> registry = [] {
    std::map<std::string, FillFactory, std::less<>> builtins;
    builtins["all"] = [](const PolicyConfig&, const Geometry&) {
      return std::unique_ptr<FillPolicy>(new AllWaysFill);
    };
    builtins["partition"] = [](const PolicyConfig&, const Geometry& g) {
      return std::unique_ptr<FillPolicy>(new PartitionFill(g.ways));
    };
    builtins["random"] = [](const PolicyConfig& c, const Geometry&) {
      return std::unique_ptr<FillPolicy>(new RandomFill(c.fill_probability));
    };
    return builtins;
  }();
  return registry;
}

template <typename Registry>
std::vector<std::string> sorted_names(const Registry& registry) {
  std::vector<std::string> names;
  names.reserve(registry.size());
  for (const auto& [name, factory] : registry) names.push_back(name);
  return names;  // std::map iterates sorted
}

}  // namespace

void register_indexing_policy(std::string name, IndexingFactory factory) {
  indexing_registry()[std::move(name)] = std::move(factory);
}

void register_fill_policy(std::string name, FillFactory factory) {
  fill_registry()[std::move(name)] = std::move(factory);
}

bool is_indexing_policy(std::string_view name) {
  return indexing_registry().find(name) != indexing_registry().end();
}

bool is_fill_policy(std::string_view name) {
  return fill_registry().find(name) != fill_registry().end();
}

std::vector<std::string> indexing_policy_names() {
  return sorted_names(indexing_registry());
}

std::vector<std::string> fill_policy_names() {
  return sorted_names(fill_registry());
}

std::unique_ptr<IndexingPolicy> make_indexing_policy(const PolicyConfig& config,
                                                     const Geometry& geometry) {
  const auto it = indexing_registry().find(config.indexing);
  MEECC_CHECK_MSG(it != indexing_registry().end(),
                  "unknown indexing policy '" << config.indexing << "'");
  return it->second(config, geometry);
}

std::unique_ptr<FillPolicy> make_fill_policy(const PolicyConfig& config,
                                             const Geometry& geometry) {
  const auto it = fill_registry().find(config.fill);
  MEECC_CHECK_MSG(it != fill_registry().end(),
                  "unknown fill policy '" << config.fill << "'");
  return it->second(config, geometry);
}

}  // namespace meecc::cache
