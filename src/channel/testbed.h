// The standard experiment rig: one simulated machine, a trojan and a spy in
// separate enclaves on separate physical cores, a noise core and a background
// core — the setup of paper §2.3 / §5.4.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/types.h"
#include "sgx/enclave.h"
#include "sim/actor.h"
#include "sim/noise.h"
#include "sim/system.h"

namespace meecc::channel {

/// Fig. 8 noise environments.
enum class NoiseEnv {
  kNone,          ///< (a) only ambient background activity
  kMemoryStress,  ///< (b) stress-ng on cache + main memory (no MEE traffic)
  kMeeStride512,  ///< (c) co-tenant enclave walking with 512 B stride
  kMeeStride4K,   ///< (d) co-tenant enclave walking with 4 KB stride
};

std::string_view to_string(NoiseEnv env);

/// Short token for CLIs and result files: none|stress|mee512|mee4k.
std::string_view to_token(NoiseEnv env);

/// Inverse of to_token (also accepts a few aliases like "memstress");
/// nullopt for unrecognized tokens.
std::optional<NoiseEnv> noise_env_from_string(std::string_view token);

struct TestBedConfig {
  sim::SystemConfig system;
  std::uint64_t trojan_enclave_bytes = 768 * 1024;
  std::uint64_t spy_enclave_bytes = 512 * 1024;
  std::uint64_t noise_enclave_bytes = 4 * 1024 * 1024;
  std::uint64_t background_enclave_bytes = 2 * 1024 * 1024;
  /// Ambient protected-region activity (OS/SGX runtime housekeeping). The
  /// residual error floor of the channel comes from here. 0 disables.
  Cycles background_mean_gap = 52000;
  NoiseEnv noise = NoiseEnv::kNone;
  /// When false, the Fig. 8 noise agent is not spawned at construction;
  /// call TestBed::start_noise() once channel setup is done (co-tenant load
  /// arriving mid-communication, which is what Fig. 8 measures).
  bool noise_autostart = true;
};

/// A TestBedConfig with a small-but-representative machine: 4 cores, 32 MB
/// EPC, MEE cache 64 KB/8-way/128 sets, 4.2 GHz.
TestBedConfig default_testbed_config(std::uint64_t seed = 42);

/// Warm test-bed state at a quiesce boundary (environment agents
/// cancelled, scheduler drained): the machine snapshot plus each actor's
/// local clock, RNG stream and address space, and whether deferred noise
/// had started. Forking from it skips whatever warm-up produced it —
/// typically Algorithm 1 + monitor discovery.
struct TestBedSnapshot {
  struct ActorState {
    Cycles clock = 0;
    Rng rng;
    mem::VirtualAddressSpace vas;
  };

  sim::SystemSnapshot system;
  std::array<ActorState, 4> actors;  ///< trojan, spy, noise, background
  bool noise_started = false;
};

/// Snapshot wire format for a full bed: the machine snapshot plus each
/// actor's clock/RNG/address space (pages in sorted order — canonical
/// bytes) and the deferred-noise flag. `shape` must be a System built from
/// the donor bed's system config; see sim/snapshot_io.h for the contract.
void encode_testbed_snapshot(io::Writer& w, sim::System& shape,
                             const TestBedSnapshot& snap);
TestBedSnapshot decode_testbed_snapshot(io::Reader& r, sim::System& shape);

class TestBed {
 public:
  explicit TestBed(const TestBedConfig& config);

  /// Fork constructor: rebuilds the machine from `config` — replaying the
  /// deterministic construction prefix (RNG fork order, EPC frame
  /// allocation) — then overwrites all mutable state from `snap` and
  /// respawns the environment agents. The result is observationally
  /// identical to the donor bed at its quiesce boundary. `config` must
  /// equal the config the donor was built from.
  TestBed(const TestBedConfig& config, const TestBedSnapshot& snap);

  sim::System& system() { return *system_; }
  sim::Scheduler& scheduler() { return system_->scheduler(); }

  sim::Actor& trojan() { return *trojan_actor_; }
  sim::Actor& spy() { return *spy_actor_; }
  sgx::Enclave& trojan_enclave() { return *trojan_enclave_; }
  sgx::Enclave& spy_enclave() { return *spy_enclave_; }

  /// Runs the scheduler until `done` becomes true. Throws CheckFailure if
  /// the event queue drains first, or if the next event is due at or past
  /// `max_cycles` — an absolute clock value, not a time elapsed since the
  /// call.
  void run_until_flag(const bool& done, Cycles max_cycles = 2'000'000'000ULL);

  /// Spawns the configured Fig. 8 noise agent if it is not running yet
  /// (no-op for NoiseEnv::kNone or if it auto-started).
  void start_noise();

  /// Cancels the environment agents (background activity + noise), leaving
  /// the scheduler quiesced so snapshot() can run. Every other agent must
  /// already have finished — call between channel phases, not mid-run.
  void quiesce_environment();

  /// Re-spawns the agents cancelled by quiesce_environment(), in the
  /// original spawn order. A respawned agent restarts its loop body (fresh
  /// draws from the actor's live RNG stream), so the boundary is NOT a
  /// no-op — both the fork path and the fresh path must pass through the
  /// same quiesce→respawn boundary to stay trace-identical.
  void respawn_environment();

  /// Captures the bed's full state. Call between quiesce_environment() and
  /// respawn_environment().
  TestBedSnapshot snapshot();

  /// Rewinds a used bed back to `snap` in place — the recycling equivalent
  /// of the fork constructor, reusing the machine's cache planes, DRAM
  /// delta buckets, arena chunks and pad tables instead of reallocating
  /// them. Returns false (leaving the bed unusable) if the bed cannot be
  /// quiesced — an aborted trial left agents live — in which case the
  /// caller must discard it and fork a fresh bed. `snap` must come from a
  /// bed with an identical config, and the caller must keep it alive and
  /// unmoved while the bed is recycled against it (the O(touched) counter
  /// rewind keys on its address).
  bool try_reset(const TestBedSnapshot& snap);

  const TestBedConfig& config() const { return config_; }

 private:
  void build_machine();
  void spawn_environment();
  void spawn_noise_agent();
  void restore_actors(const TestBedSnapshot& snap);

  TestBedConfig config_;
  bool noise_started_ = false;
  sim::ProcessHandle background_handle_;
  sim::ProcessHandle noise_handle_;
  std::unique_ptr<sim::System> system_;
  std::unique_ptr<sim::Actor> trojan_actor_;
  std::unique_ptr<sim::Actor> spy_actor_;
  std::unique_ptr<sim::Actor> noise_actor_;
  std::unique_ptr<sim::Actor> background_actor_;
  std::unique_ptr<sgx::Enclave> trojan_enclave_;
  std::unique_ptr<sgx::Enclave> spy_enclave_;
  std::unique_ptr<sgx::Enclave> noise_enclave_;
  std::unique_ptr<sgx::Enclave> background_enclave_;
};

}  // namespace meecc::channel
