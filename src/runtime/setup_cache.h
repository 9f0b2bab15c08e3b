// Memoized warm-state store for snapshot/fork trial execution.
//
// Sweeps repeat an expensive setup phase (Algorithm 1 eviction-set build,
// monitor discovery) for every trial even when only measure-phase
// parameters differ. The runner installs one SetupCache per sweep; trials
// that declare the same key (Experiment::setups) share a single warm
// state, built once and forked per trial. The runner resolves each key in
// a setup work item ahead of its trials and release()s it after the last
// of them, so the cache holds the states of a window of trials, not of the
// whole sweep. States are type-erased shared_ptrs — each experiment family
// defines its own warm-state struct (a TestBedSnapshot plus whatever setup
// artifacts it needs).
//
// With a SetupStore attached (setup_store.h) the cache becomes two-tier:
// a key missing in memory is looked up on disk first (decoded through the
// experiment-supplied codec), and a freshly built state is encoded and
// written back, so later processes and other shards skip the build. Any
// disk-side failure — corrupt frame, decode error, key collision — falls
// back to a fresh build and is tallied, never fatal.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace meecc::runtime {

class BedPool;
class SetupStore;

/// Thread-safe store of type-erased warm setup states keyed by setup key.
/// When callers race on one key, the first runs the builder and the rest
/// block on a shared future — a key is never resolved twice while its
/// entry is held (until release()).
class SetupCache {
 public:
  using Builder = std::function<std::shared_ptr<const void>()>;
  /// Serialize a state to canonical payload bytes (SetupStore frames them).
  using Encoder = std::function<std::string(const void*)>;
  /// Rebuild a state from payload bytes; throws io::DecodeError on any
  /// mismatch (treated as a disk miss, never fatal).
  using Decoder = std::function<std::shared_ptr<const void>(std::string_view)>;

  /// Attaches the on-disk tier (borrowed; may be null to detach). Only
  /// get_or_build calls that supply a codec use it.
  void attach_store(SetupStore* store);

  /// Returns the state for `key`, producing it (at most once per held
  /// entry) by — in order — loading it from the attached store when
  /// `decoder` is given, else running `builder`. A built state is written
  /// back through `encoder` when both it and a store are present. The
  /// builder runs under a detached obs::TrialScope so the setup machine's
  /// counters don't leak into whichever trial happened to build first —
  /// forked Systems restore the snapshot's counter baseline instead,
  /// keeping per-trial totals identical to fresh runs. A throwing builder
  /// propagates to every sharing trial (not retried).
  std::shared_ptr<const void> get_or_build(const std::string& key,
                                           const Builder& builder,
                                           const Encoder& encoder = nullptr,
                                           const Decoder& decoder = nullptr);

  /// Drops the entry for `key` (no-op when absent). Holders of the state
  /// keep it alive; a later get_or_build for the key resolves it afresh.
  void release(const std::string& key);

  /// Entries currently held (resolved, in flight, or failed).
  std::size_t size() const;
  /// get_or_build calls that found the key already in memory, resolved or
  /// in flight. Under the runner a declared key is resolved by exactly one
  /// of its fetches (normally its setup item's) and every other one counts
  /// here, so this equals the trials' own fetches of declared keys.
  std::uint64_t memory_hits() const;
  /// Loaded and decoded from the attached SetupStore.
  std::uint64_t disk_hits() const;
  /// Ran the builder (disk absent, rejected, or no store attached).
  std::uint64_t builds() const;
  /// Disk entries rejected, keyed by reject reason (to_string(Lookup) or
  /// "decode-error") — observable evidence that fallback, not a crash,
  /// handled each corruption mode.
  std::map<std::string, std::uint64_t> disk_rejects() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_future<std::shared_ptr<const void>>>
      entries_;
  SetupStore* store_ = nullptr;
  std::uint64_t memory_hits_ = 0;
  std::uint64_t disk_hits_ = 0;
  std::uint64_t builds_ = 0;
  std::map<std::string, std::uint64_t> disk_rejects_;
};

/// Per-trial runtime context, installed (thread-local) by the runner around
/// experiment.run. Experiments reach the sweep-wide SetupCache through it;
/// no context (unit tests, direct run() calls) means "build fresh".
class TrialContext {
 public:
  explicit TrialContext(SetupCache* cache, BedPool* bed_pool = nullptr);
  ~TrialContext();

  TrialContext(const TrialContext&) = delete;
  TrialContext& operator=(const TrialContext&) = delete;

  /// Innermost context on this thread, or nullptr.
  static TrialContext* current();

  SetupCache* setup_cache() const { return cache_; }

  /// This worker's bed-recycling pool (bed_pool.h), or nullptr when
  /// recycling is off (--no-recycle-systems, tracing, direct run() calls).
  BedPool* bed_pool() const { return bed_pool_; }

 private:
  TrialContext* previous_;
  SetupCache* cache_;
  BedPool* bed_pool_;
};

/// Typed front door: the memoized state for `key`, built with `builder` on
/// first use. Without an ambient cache the builder runs directly and
/// nothing is stored, so experiment code is identical in both modes.
template <typename T>
std::shared_ptr<const T> memoized_setup(
    const std::string& key,
    const std::function<std::shared_ptr<const T>()>& builder) {
  TrialContext* context = TrialContext::current();
  if (context == nullptr || context->setup_cache() == nullptr)
    return builder();
  auto erased = context->setup_cache()->get_or_build(
      key, [&]() -> std::shared_ptr<const void> { return builder(); });
  return std::static_pointer_cast<const T>(erased);
}

/// memoized_setup with a wire codec: states reach the attached SetupStore
/// (if any) through encode/decode. The codec sees the concrete T; the
/// cache sees bytes.
template <typename T>
std::shared_ptr<const T> memoized_setup(
    const std::string& key,
    const std::function<std::shared_ptr<const T>()>& builder,
    const std::function<std::string(const T&)>& encode,
    const std::function<std::shared_ptr<const T>(std::string_view)>& decode) {
  TrialContext* context = TrialContext::current();
  if (context == nullptr || context->setup_cache() == nullptr)
    return builder();
  auto erased = context->setup_cache()->get_or_build(
      key, [&]() -> std::shared_ptr<const void> { return builder(); },
      [&](const void* state) {
        return encode(*static_cast<const T*>(state));
      },
      [&](std::string_view payload) -> std::shared_ptr<const void> {
        return decode(payload);
      });
  return std::static_pointer_cast<const T>(erased);
}

}  // namespace meecc::runtime
