#include "replay.h"

#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "channel/covert_channel.h"
#include "channel/mitigation.h"
#include "channel/testbed.h"
#include "common/bytes.h"
#include "common/check.h"
#include "obs/scope.h"
#include "runtime/bed_pool.h"
#include "runtime/params.h"
#include "runtime/setup_store.h"
#include "sim/system.h"

namespace meecc::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// The warm state the mitigations experiments memoize per setup key, with
/// the same wire layout as their setup-store codec.
struct WarmState {
  channel::TestBedSnapshot bed;
  channel::ChannelSetup setup;
  bool setup_ok = false;
};

std::shared_ptr<const WarmState> decode_warm_state(
    const channel::TestBedConfig& config, std::string_view payload) {
  sim::System shape(config.system);
  io::Reader r(payload);
  auto state = std::make_shared<WarmState>(
      WarmState{.bed = channel::decode_testbed_snapshot(r, shape),
                .setup = {},
                .setup_ok = false});
  const auto decode_addrs = [&r](std::vector<VirtAddr>& addrs) {
    addrs.resize(static_cast<std::size_t>(r.u64()));
    for (auto& addr : addrs) addr = VirtAddr{r.u64()};
  };
  decode_addrs(state->setup.eviction.eviction_set);
  decode_addrs(state->setup.eviction.index_set);
  state->setup.eviction.test_address = VirtAddr{r.u64()};
  state->setup.eviction.found_test_address = r.u8() != 0;
  state->setup.eviction.done = r.u8() != 0;
  state->setup.monitor = VirtAddr{r.u64()};
  state->setup.monitor_found = r.u8() != 0;
  state->setup_ok = r.u8() != 0;
  r.expect_done();
  return state;
}

/// after − before, counter by counter (counters are never unregistered, so
/// `after` names every counter `before` does).
obs::CounterSnapshot delta(const obs::CounterSnapshot& after,
                           const obs::CounterSnapshot& before) {
  obs::CounterSnapshot out = after;
  for (auto& sample : out)
    sample.value -= obs::snapshot_value(before, sample.name);
  return out;
}

class Replayer {
 public:
  explicit Replayer(const runtime::SetupStore* store) : store_(store) {}

  obs::CounterSnapshot trial(const runtime::TrialSpec& spec) {
    obs::TrialScope scope(nullptr);
    const auto payload =
        channel::alternating_bits(runtime::param_u64(spec, "bits", 192));
    const auto attempts = runtime::param_u64(spec, "setup_attempts", 2);
    for (std::uint64_t i = 0; i < attempts; ++i)
      attempt(spec, spec.seed + i, payload);
    legit(spec);
    return scope.counters();
  }

  std::map<std::string, PhaseTotals> take_phases() { return std::move(phases_); }
  std::size_t distinct_setups() const { return warm_.size(); }

 private:
  /// Times `body` as one call of `phase`.
  template <typename F>
  void span(const char* phase, F&& body) {
    const auto start = Clock::now();
    body();
    PhaseTotals& totals = phases_[phase];
    totals.ms +=
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    ++totals.calls;
  }

  void add_work(const char* phase, const obs::CounterSnapshot& work) {
    obs::merge_into(phases_[phase].work, work);
  }

  std::shared_ptr<const WarmState> warm_state(
      const channel::TestBedConfig& config, const std::string& key) {
    const auto it = warm_.find(key);
    if (it != warm_.end()) return it->second;
    obs::TrialScope shield(nullptr);
    std::shared_ptr<const WarmState> state;
    if (store_ == nullptr) {
      span("setup_build", [&] {
        channel::TestBed bed(config);
        channel::ChannelSetup setup;
        bool setup_ok = false;
        try {
          setup = channel::setup_covert_channel(bed, channel::ChannelConfig{});
          setup_ok = true;
        } catch (const CheckFailure&) {
          // The mitigation blocked Algorithm 1; the blocked bed is the state.
        }
        bed.quiesce_environment();
        state = std::make_shared<const WarmState>(WarmState{
            .bed = bed.snapshot(), .setup = setup, .setup_ok = setup_ok});
        add_work("setup_build", bed.system().hub().registry().snapshot());
      });
    } else {
      span("setup_load", [&] {
        const auto loaded = store_->load(key);
        if (loaded.status != runtime::SetupStore::Lookup::kHit)
          throw std::runtime_error("setup store has no usable entry for '" +
                                   key + "': " +
                                   std::string(runtime::to_string(loaded.status)));
        state = decode_warm_state(config, *loaded.payload);
      });
    }
    warm_.emplace(key, state);
    return state;
  }

  /// One Algorithm 2 attempt on a bed forked from (or rewound to) the warm
  /// state for `seed`.
  void attempt(const runtime::TrialSpec& spec, std::uint64_t seed,
               const std::vector<std::uint8_t>& payload) {
    channel::TestBedConfig config = runtime::make_testbed_config(spec);
    config.system.seed = seed;
    const std::string key = warm_key_for(spec, seed);
    const auto warm = warm_state(config, key);
    const std::shared_ptr<const channel::TestBedSnapshot> snap(warm,
                                                               &warm->bed);
    runtime::PooledBed entry = acquire(key + "|measure", snap, [&] {
      runtime::PooledBed fresh;
      span("bed_fork", [&] {
        fresh.bed = std::make_unique<channel::TestBed>(config, *snap);
      });
      fresh.snap = snap;
      return fresh;
    });
    channel::TestBed& bed = *entry.bed;
    if (warm->setup_ok) {
      const auto before = bed.system().hub().registry().snapshot();
      span("transfer", [&] {
        try {
          bed.start_noise();
          channel::transfer_covert_channel(bed, channel::ChannelConfig{},
                                           payload, warm->setup);
        } catch (const CheckFailure&) {
          // Transfer collapsed under this policy, as in the experiment.
        }
      });
      add_work("transfer",
               delta(bed.system().hub().registry().snapshot(), before));
    }
    release(key + "|measure", std::move(entry));
  }

  void legit(const runtime::TrialSpec& spec) {
    channel::TestBedConfig config = runtime::make_testbed_config(spec);
    config.system.seed = spec.seed + 1000;
    const std::string key = warm_key_for(spec, config.system.seed) + "|legit";
    runtime::PooledBed entry = acquire(key, nullptr, [&] {
      runtime::PooledBed fresh;
      span("bed_build", [&] {
        fresh.bed = std::make_unique<channel::TestBed>(config);
        fresh.bed->quiesce_environment();
        fresh.snap = std::make_shared<const channel::TestBedSnapshot>(
            fresh.bed->snapshot());
        fresh.bed->respawn_environment();
      });
      add_work("bed_build", fresh.bed->system().hub().registry().snapshot());
      return fresh;
    });
    channel::TestBed& bed = *entry.bed;
    const auto before = bed.system().hub().registry().snapshot();
    span("legit", [&] {
      channel::measure_legit_workload(
          bed, runtime::param_u64(spec, "legit_bytes", 256 * 1024),
          static_cast<int>(runtime::param_u64(spec, "legit_samples", 3000)));
    });
    add_work("legit", delta(bed.system().hub().registry().snapshot(), before));
    release(key, std::move(entry));
  }

  /// The runner's bed lease: rewind the pooled bed for `key` when it was
  /// parked against `snap` (any snapshot when `snap` is null), otherwise
  /// make a fresh one with `make`.
  template <typename Make>
  runtime::PooledBed acquire(
      const std::string& key,
      const std::shared_ptr<const channel::TestBedSnapshot>& snap,
      Make&& make) {
    runtime::PooledBed pooled = pool_.take(key);
    if (pooled && pooled.snap != nullptr &&
        (snap == nullptr || pooled.snap == snap)) {
      bool rewound = false;
      span("bed_reset", [&] { rewound = pooled.bed->try_reset(*pooled.snap); });
      if (rewound) {
        pool_.note_recycle();
        return pooled;
      }
    }
    if (pooled) runtime::BedPool::drop(std::move(pooled));
    return make();
  }

  /// Hands the bed's counters to the trial and parks it (the pool may
  /// evict, and so destroy, an older bed here).
  void release(const std::string& key, runtime::PooledBed entry) {
    span("bed_park", [&] {
      obs::TrialScope::current()->absorb(entry.bed->system().hub().registry());
      pool_.put(key, std::move(entry));
    });
  }

  const runtime::SetupStore* store_;
  std::map<std::string, std::shared_ptr<const WarmState>> warm_;
  std::map<std::string, PhaseTotals> phases_;
  runtime::BedPool pool_;
};

}  // namespace

std::string warm_key_for(const runtime::TrialSpec& spec, std::uint64_t seed) {
  std::string key = "mitigation-setup|seed=" + std::to_string(seed);
  for (const auto& [param, value] : spec.params)
    if (runtime::is_config_key(param)) key += '|' + param + '=' + value;
  return key;
}

std::size_t distinct_setup_keys(const std::vector<runtime::TrialSpec>& trials) {
  std::set<std::string> keys;
  for (const auto& spec : trials) {
    const auto attempts = runtime::param_u64(spec, "setup_attempts", 2);
    for (std::uint64_t i = 0; i < attempts; ++i)
      keys.insert(warm_key_for(spec, spec.seed + i));
  }
  return keys.size();
}

ReplayResult replay_mitigations(const std::vector<runtime::TrialSpec>& trials,
                                const runtime::SetupStore* store) {
  ReplayResult result;
  Replayer replayer(store);
  result.trial_counters.reserve(trials.size());
  for (const auto& spec : trials)
    result.trial_counters.push_back(replayer.trial(spec));
  result.phases = replayer.take_phases();
  result.distinct_setups = replayer.distinct_setups();
  return result;
}

}  // namespace meecc::perfbench
