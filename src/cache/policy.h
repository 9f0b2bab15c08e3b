// Composable cache policies: how a line finds its set (IndexingPolicy) and
// which ways a fill may claim (FillPolicy), each constructible by name
// through a string→factory registry.
//
// The set-index computation used to be welded into Geometry::set_index and
// the fill path hard-wired "any way". Pulling both behind interfaces lets a
// SetAssocCache compose (indexing × replacement × fill), which is exactly
// the design space of the §5.5 countermeasures and the randomized-cache
// literature (CEASER-style keyed indexing, skewed indexing, way
// partitioning, random fill). Every policy is selectable through the
// experiment runtime's string-keyed overrides, e.g.
//   meecc_bench run mitigations --sweep mee.cache.indexing=modulo,keyed
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/geometry.h"
#include "common/rng.h"
#include "common/types.h"

namespace meecc::cache {

/// Mask of ways a fill is allowed to victimize; bit w = way w allowed.
using WayMask = std::uint32_t;
inline constexpr WayMask kAllWays = ~WayMask{0};

/// Everything needed to build one cache's policy stack. All fields are
/// plain strings/scalars so the runtime's --set/--sweep overrides map onto
/// them directly (runtime/params.cc owns the key spellings).
struct PolicyConfig {
  std::string indexing = "modulo";        ///< modulo | keyed | skewed
  std::string replacement = "tree-plru";  ///< lru | tree-plru | nru | random
  std::string fill = "all";               ///< all | partition | random
  /// Keyed/skewed permutation key. Deterministic default so two caches
  /// built from the same config agree on the mapping.
  std::uint64_t index_key = 0x5eed5ca7ab1e0101ULL;
  /// Way groups with independent index permutations (skewed indexing).
  std::uint32_t skew_partitions = 2;
  /// Admission probability of the random-fill policy.
  double fill_probability = 0.5;
  /// MEE-engine knob (threaded through MeeConfig): walks between
  /// flush+rekey events; 0 disables periodic rekey.
  std::uint64_t rekey_period = 0;
};

/// Cheap keyed bijection on 64-bit line indices: an add-xor-multiply chain
/// (SplitMix64-style finalizer) in which every step is invertible, so the
/// whole map is a permutation of the u64 space. Exposed for the bijection
/// property tests.
std::uint64_t keyed_line_permutation(std::uint64_t line, std::uint64_t key);

/// Maps a line index (addr / line_size) to a set. Implementations must be
/// bijective over line indices before the final modulo so that every set is
/// reachable and no two residents can alias within a set.
class IndexingPolicy {
 public:
  virtual ~IndexingPolicy() = default;

  virtual std::string_view name() const = 0;

  /// Set for `line` when considered for `way`. Way-independent for classic
  /// designs; skewed designs hash each way group differently.
  virtual std::uint64_t set_of(std::uint64_t line, std::uint32_t way) const = 0;

  /// True when set_of depends on `way` (the cache then probes each way at
  /// its own set and uses random victim selection, as real skewed caches do).
  virtual bool way_dependent() const { return false; }

  /// If set_of reduces to `line & mask` for every way (the classic modulo
  /// design), returns that mask so the cache's per-access paths can skip the
  /// virtual dispatch entirely. Queried again after every rekey().
  virtual std::optional<std::uint64_t> modulo_mask() const {
    return std::nullopt;
  }

  /// Installs a fresh permutation key (CEASER-style rekey). The caller is
  /// responsible for flushing residents mapped under the old key. No-op for
  /// keyless designs.
  virtual void rekey(std::uint64_t fresh_key) { (void)fresh_key; }

  /// Current permutation key, if the design has one. Snapshot serialization
  /// stores this and replays it through rekey() on decode, so a rekeyed
  /// cache round-trips without the snapshot knowing the policy's internals.
  virtual std::optional<std::uint64_t> current_key() const {
    return std::nullopt;
  }

  /// Deep copy including the current key (snapshot/fork support). The
  /// default returns nullptr; externally registered policies that don't
  /// override it make the owning cache uncopyable (SetAssocCache's copy
  /// constructor throws CheckFailure).
  virtual std::unique_ptr<IndexingPolicy> clone() const { return nullptr; }
};

/// Decides which ways a requester's fill may claim and whether the miss is
/// admitted at all. Subsumes the old ad-hoc MeePartitionFn hook.
class FillPolicy {
 public:
  virtual ~FillPolicy() = default;

  virtual std::string_view name() const = 0;

  /// Ways `requester` may victimize (intersected with the caller's mask).
  virtual WayMask allowed_ways(CoreId requester) const {
    (void)requester;
    return kAllWays;
  }

  /// Whether this miss is installed at all. Stochastic policies (random
  /// fill) consume `rng`; deterministic ones must not touch it.
  virtual bool admits(CoreId requester, Rng& rng) {
    (void)requester;
    (void)rng;
    return true;
  }

  /// True when the policy admits every miss and allows every way for every
  /// requester (the default "all" policy). Lets the cache's fill path skip
  /// both virtual calls per miss.
  virtual bool passthrough() const { return false; }

  /// True when admits() can never decline a miss. A hierarchy whose LLC
  /// fill policy says so is strictly inclusive, which lets it track private
  /// copies per LLC line instead of probing every core (cache/hierarchy.h).
  /// Conservative default: a policy that doesn't say so is assumed to
  /// decline some misses.
  virtual bool admits_every_miss() const { return false; }

  /// Deep copy (snapshot/fork support); same nullptr contract as
  /// IndexingPolicy::clone().
  virtual std::unique_ptr<FillPolicy> clone() const { return nullptr; }
};

/// The way-partition mask the "partition" fill policy hands out: even cores
/// get the low half of the ways, odd cores the high half. Exposed for tests
/// and for documentation of the §5.5 ablation.
WayMask way_partition_mask(std::uint32_t ways, CoreId core);

// --- string → factory registry ------------------------------------------

using IndexingFactory = std::function<std::unique_ptr<IndexingPolicy>(
    const PolicyConfig&, const Geometry&)>;
using FillFactory = std::function<std::unique_ptr<FillPolicy>(
    const PolicyConfig&, const Geometry&)>;

/// Registers a policy under `name`, replacing any previous registration.
/// Built-ins (modulo/keyed/skewed, all/partition/random) are pre-registered.
void register_indexing_policy(std::string name, IndexingFactory factory);
void register_fill_policy(std::string name, FillFactory factory);

/// True if `name` resolves to a registered policy.
bool is_indexing_policy(std::string_view name);
bool is_fill_policy(std::string_view name);

/// Registered names, sorted — the CLI's discoverability surface
/// (`meecc_bench params`).
std::vector<std::string> indexing_policy_names();
std::vector<std::string> fill_policy_names();

/// Builds the policy named by `config.indexing` / `config.fill`.
/// Throws CheckFailure on unknown names (the runtime validates earlier and
/// reports the registered alternatives).
std::unique_ptr<IndexingPolicy> make_indexing_policy(const PolicyConfig& config,
                                                     const Geometry& geometry);
std::unique_ptr<FillPolicy> make_fill_policy(const PolicyConfig& config,
                                             const Geometry& geometry);

}  // namespace meecc::cache
