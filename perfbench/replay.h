// Single-threaded, span-timed replay of a `mitigations` campaign through
// the public channel functions.
//
// The runner hides a mitigations trial's phases inside one Experiment::run
// call. The replay walks the same trial list in trial order and calls each
// phase itself, with a steady-clock span around every call and counter
// deltas read from the bed's system().hub().registry():
//
//   setup_build  TestBed construction, setup_covert_channel,
//                quiesce_environment, snapshot (one per distinct setup key)
//   setup_load   SetupStore::load + snapshot decode (stored campaigns)
//   bed_fork     TestBed(config, snapshot) for a measure bed
//   bed_reset    TestBed::try_reset of a recycled measure bed
//   bed_build    fresh legit-workload bed (construction, quiesce, snapshot,
//                respawn)
//   transfer     start_noise + transfer_covert_channel
//   legit        measure_legit_workload
//   bed_park     handing a bed back to the pool (absorbs its counters; may
//                evict and destroy an older bed)
//
// Each setup key is built (or loaded) once, as SetupCache does, and beds are
// recycled through a runtime::BedPool, as the runner's workers do. Every
// trial runs under its own obs::TrialScope, so the replay reproduces the
// counters the runner writes into that trial's JSONL line; the caller
// compares them to prove the replay is faithful.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "runtime/experiment.h"

namespace meecc::runtime {
class SetupStore;
}

namespace meecc::perfbench {

/// Host time and executed simulator work of one replay phase, summed over
/// every call. Counter deltas cover only phases that run the simulator
/// (build, transfer, legit); forks and resets restore state instead.
struct PhaseTotals {
  double ms = 0.0;
  std::uint64_t calls = 0;
  obs::CounterSnapshot work;
};

struct ReplayResult {
  std::map<std::string, PhaseTotals> phases;  ///< keyed by phase name
  /// Per trial (trial-list order): the counters the trial's scope absorbed.
  std::vector<obs::CounterSnapshot> trial_counters;
  std::size_t distinct_setups = 0;
};

/// The warm-setup key the mitigations experiments share a setup under:
/// machine seed plus every shared-config param of the trial.
std::string warm_key_for(const runtime::TrialSpec& spec, std::uint64_t seed);

/// Distinct warm-setup keys a trial list resolves (setup_attempts seeds per
/// trial).
std::size_t distinct_setup_keys(const std::vector<runtime::TrialSpec>& trials);

/// Replays `trials` in order. With `store` null every setup is built; with
/// a store every setup is loaded from it, and a missing or rejected entry
/// throws std::runtime_error (a stored campaign must not build).
ReplayResult replay_mitigations(const std::vector<runtime::TrialSpec>& trials,
                                const runtime::SetupStore* store);

}  // namespace meecc::perfbench
