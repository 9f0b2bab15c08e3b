#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sgx/enclave.h"
#include "sim/actor.h"
#include "sim/des.h"
#include "sim/noise.h"
#include "sim/system.h"
#include "sim/timer.h"

namespace meecc::sim {
namespace {

SystemConfig small_system_config(std::uint64_t seed = 1) {
  SystemConfig config;
  config.seed = seed;
  config.cores = 4;
  config.address_map.general_size = 16ull << 20;
  config.address_map.epc_size = 8ull << 20;
  return config;
}

// ---------------------------------------------------------------- kernel --

Process record_ticks(Scheduler& scheduler, std::vector<Cycles>* out,
                     Cycles period, int count) {
  for (int i = 0; i < count; ++i) {
    co_await WakeAt{scheduler, scheduler.now() + period};
    out->push_back(scheduler.now());
  }
}

TEST(Des, EventsFireInTimeOrder) {
  Scheduler scheduler;
  std::vector<Cycles> a, b;
  scheduler.spawn(record_ticks(scheduler, &a, 100, 5));
  scheduler.spawn(record_ticks(scheduler, &b, 70, 5));
  scheduler.run_to_completion();
  EXPECT_EQ(a, (std::vector<Cycles>{100, 200, 300, 400, 500}));
  EXPECT_EQ(b, (std::vector<Cycles>{70, 140, 210, 280, 350}));
}

TEST(Des, RunUntilStopsAtHorizon) {
  Scheduler scheduler;
  std::vector<Cycles> ticks;
  scheduler.spawn(record_ticks(scheduler, &ticks, 100, 10));
  scheduler.run_until(350);
  EXPECT_EQ(ticks.size(), 3u);
  EXPECT_EQ(scheduler.now(), 300u);
  scheduler.run_to_completion();
  EXPECT_EQ(ticks.size(), 10u);
}

TEST(Des, StepDispatchesOneEvent) {
  Scheduler scheduler;
  std::vector<Cycles> ticks;
  scheduler.spawn(record_ticks(scheduler, &ticks, 10, 3));
  EXPECT_TRUE(scheduler.step());  // initial resume enters the loop
  EXPECT_TRUE(scheduler.step());
  EXPECT_EQ(ticks.size(), 1u);
  while (scheduler.step()) {
  }
  EXPECT_EQ(ticks.size(), 3u);
  EXPECT_FALSE(scheduler.step());
}

Process throwing_agent(Scheduler& scheduler) {
  co_await WakeAt{scheduler, 50};
  throw std::runtime_error("agent exploded");
}

TEST(Des, AgentExceptionPropagatesToDriver) {
  Scheduler scheduler;
  scheduler.spawn(throwing_agent(scheduler));
  EXPECT_THROW(scheduler.run_to_completion(), std::runtime_error);
}

Task<int> child_task(Scheduler& scheduler, Cycles delay) {
  co_await WakeAt{scheduler, scheduler.now() + delay};
  co_return 41;
}

Process parent_with_child(Scheduler& scheduler, int* out) {
  const int v = co_await child_task(scheduler, 30);
  *out = v + 1;
}

TEST(Des, TaskReturnsValueToParent) {
  Scheduler scheduler;
  int out = 0;
  scheduler.spawn(parent_with_child(scheduler, &out));
  scheduler.run_to_completion();
  EXPECT_EQ(out, 42);
  EXPECT_EQ(scheduler.now(), 30u);
}

Task<> throwing_task() {
  throw std::logic_error("task failed");
  co_return;  // unreachable; makes this a coroutine
}

Process parent_catches(Scheduler& scheduler, bool* caught) {
  co_await WakeAt{scheduler, 1};
  try {
    co_await throwing_task();
  } catch (const std::logic_error&) {
    *caught = true;
  }
}

TEST(Des, TaskExceptionCatchableInParent) {
  Scheduler scheduler;
  bool caught = false;
  scheduler.spawn(parent_catches(scheduler, &caught));
  scheduler.run_to_completion();
  EXPECT_TRUE(caught);
}

TEST(Des, UnspawnedProcessCleansUp) {
  Scheduler scheduler;
  std::vector<Cycles> ticks;
  { const Process p = record_ticks(scheduler, &ticks, 10, 3); }
  EXPECT_TRUE(ticks.empty());  // never ran, no leak (ASAN would catch)
}

TEST(Des, FinishedProcessesArePruned) {
  Scheduler scheduler;
  EXPECT_EQ(scheduler.live_processes(), 0u);
  std::vector<Cycles> ticks;
  for (int i = 0; i < 1000; ++i)
    scheduler.spawn(record_ticks(scheduler, &ticks, 1, 2));
  EXPECT_EQ(scheduler.live_processes(), 1000u);
  scheduler.run_to_completion();
  EXPECT_EQ(ticks.size(), 2000u);
  EXPECT_EQ(scheduler.live_processes(), 0u);  // all reclaimed, not retained
}

TEST(Des, ExceptionStillPropagatesAfterManyCompletions) {
  // The O(1) completion path must not lose agent errors: an agent that dies
  // after thousands of other agents have come and gone still surfaces.
  Scheduler scheduler;
  std::vector<Cycles> scratch;
  for (int i = 0; i < 2000; ++i)
    scheduler.spawn(record_ticks(scheduler, &scratch, 1, 1));
  scheduler.spawn(throwing_agent(scheduler));  // throws at t=50
  EXPECT_THROW(scheduler.run_to_completion(), std::runtime_error);
  EXPECT_EQ(scheduler.live_processes(), 0u);
}

TEST(Des, DispatchCostIndependentOfHistoricalSpawns) {
  // Regression guard for the old dispatch(), which scanned every handle the
  // scheduler had EVER spawned after each event (O(events × processes)).
  // Time a fixed-size dispatch workload after a small and a large number of
  // historical (completed) spawns; the costs must be comparable.
  const auto timed_run = [](int history) {
    Scheduler scheduler;
    std::vector<Cycles> scratch;
    for (int i = 0; i < history; ++i)
      scheduler.spawn(record_ticks(scheduler, &scratch, 1, 1));
    scheduler.run_to_completion();
    std::vector<Cycles> ticks;
    scheduler.spawn(record_ticks(scheduler, &ticks, 1, 20'000));
    const auto start = std::chrono::steady_clock::now();
    scheduler.run_to_completion();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double small_history = timed_run(16);
  const double large_history = timed_run(20'000);
  // With the scanning dispatch this ratio is in the hundreds; 8x plus an
  // absolute 10 ms slack absorbs timer noise on loaded CI machines.
  EXPECT_LT(large_history, small_history * 8.0 + 0.01);
}

// Inline dispatch equivalence: the same multi-agent program — equal-time
// ties, sleeps, a mid-run spawn and cancel, a stop flag raised mid-run — is
// driven once one step() at a time (never inline) and once through the run
// loops (inline wherever allowed). Every resumption logs exactly one entry,
// so the log is the dispatch sequence.
struct InlineProgram {
  obs::Hub hub;
  Scheduler scheduler;
  std::vector<std::pair<int, Cycles>> log;
  bool stop = false;
  ProcessHandle sleeper;

  InlineProgram() {
    scheduler.set_hub(&hub);
    scheduler.spawn(ticker(0, 10, 20));   // A: 0, 10, ..., 200
    scheduler.spawn(spawner());           // B: ties with A at every tick
    sleeper = scheduler.spawn(ticker(3, 7, 1'000'000));  // D: cancelled
    scheduler.spawn(flagger());           // E: raises `stop` at 300
    scheduler.spawn(ticker(5, 40, 12));   // F: lone tail 240, 280, ...
  }

  void note(int agent) { log.emplace_back(agent, scheduler.now()); }

  Process ticker(int agent, Cycles period, int count) {
    note(agent);
    for (int i = 0; i < count; ++i) {
      co_await WakeAt{scheduler, scheduler.now() + period};
      note(agent);
    }
  }

  Process spawner() {
    note(1);
    for (int i = 1; i <= 20; ++i) {
      co_await WakeAt{scheduler, scheduler.now() + 10};
      note(1);
      if (i == 5) scheduler.spawn(ticker(2, 3, 5), scheduler.now());  // C
      if (i == 8) {
        EXPECT_TRUE(scheduler.cancel(sleeper));
      }
    }
  }

  Process flagger() {
    note(4);
    co_await WakeAt{scheduler, 300};
    stop = true;
    note(40);
    co_await WakeAt{scheduler, scheduler.now()};  // due now, after the stop
    note(41);
    co_await WakeAt{scheduler, scheduler.now() + 1000};
    note(42);
  }
};

TEST(Des, InlineDispatchMatchesSteppedDispatch) {
  InlineProgram stepped;
  std::uint64_t steps = 0;
  while (stepped.scheduler.step()) ++steps;
  ASSERT_EQ(steps, stepped.log.size());

  InlineProgram run;
  constexpr Cycles kHorizon = 250;  // F's 240 -> 280 wake crosses it alone
  const std::uint64_t first = run.scheduler.run_until(kHorizon);
  std::uint64_t expect_first = 0;
  while (stepped.log[expect_first].second <= kHorizon) ++expect_first;
  EXPECT_EQ(first, expect_first);
  EXPECT_EQ(run.log.size(), first);
  EXPECT_EQ(run.scheduler.now(), stepped.log[first - 1].second);

  const std::uint64_t second =
      run.scheduler.run_until_flag(run.stop, ~Cycles{0});
  EXPECT_TRUE(run.stop);
  // Stops right after the dispatch that raised the flag (E's entry at 300),
  // without running E's same-time follow-up inline.
  ASSERT_EQ(run.log.size(), first + second);
  EXPECT_EQ(run.log.back(), (std::pair<int, Cycles>{40, 300}));
  EXPECT_EQ(stepped.log[first + second - 1], run.log.back());

  const std::uint64_t third = run.scheduler.run_to_completion();
  EXPECT_EQ(first + second + third, steps);
  EXPECT_EQ(run.log, stepped.log);
  EXPECT_EQ(run.scheduler.now(), stepped.scheduler.now());
  EXPECT_EQ(run.scheduler.event_seq(), stepped.scheduler.event_seq());
  EXPECT_EQ(run.hub.registry().capture(), stepped.hub.registry().capture());
  EXPECT_EQ(run.scheduler.live_processes(), 0u);
}

// ---------------------------------------------------------------- system --

class SystemTest : public ::testing::Test {
 protected:
  SystemTest() : system_(small_system_config()) {}
  System system_;
};

Process single_reader(Actor& actor, VirtAddr addr, AccessResult* out,
                      bool* done) {
  *out = co_await actor.read(addr);
  *done = true;
}

TEST_F(SystemTest, GeneralAccessLatencyIsDramPlusLookup) {
  Actor actor(system_, CoreId{0}, CpuMode::kNonEnclave);
  const VirtAddr buffer =
      map_general_buffer(actor, VirtAddr{0x1000'0000}, kPageSize);
  AccessResult result;
  bool done = false;
  system_.scheduler().spawn(single_reader(actor, buffer, &result, &done));
  system_.scheduler().run_to_completion();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.cache_level, cache::HitLevel::kMemory);
  EXPECT_FALSE(result.mee_level.has_value());
  EXPECT_NEAR(static_cast<double>(result.latency), 280.0 + 44.0, 120.0);
}

TEST_F(SystemTest, ProtectedAccessGoesThroughMee) {
  Actor actor(system_, CoreId{0}, CpuMode::kEnclave);
  sgx::Enclave enclave(actor, sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                                 64 * kPageSize});
  AccessResult result;
  bool done = false;
  system_.scheduler().spawn(
      single_reader(actor, enclave.address(0), &result, &done));
  system_.scheduler().run_to_completion();
  ASSERT_TRUE(result.mee_level.has_value());
  EXPECT_EQ(*result.mee_level, mee::Level::kRoot);  // cold walk
  EXPECT_GT(result.latency, 600u);
}

Process hit_then_flush_then_miss(Actor& actor, VirtAddr addr,
                                 std::vector<cache::HitLevel>* levels,
                                 bool* done) {
  levels->push_back((co_await actor.read(addr)).cache_level);
  levels->push_back((co_await actor.read(addr)).cache_level);
  co_await actor.clflush(addr);
  levels->push_back((co_await actor.read(addr)).cache_level);
  *done = true;
}

TEST_F(SystemTest, ClflushForcesNextAccessToMemory) {
  Actor actor(system_, CoreId{1}, CpuMode::kEnclave);
  sgx::Enclave enclave(actor, sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                                 16 * kPageSize});
  std::vector<cache::HitLevel> levels;
  bool done = false;
  system_.scheduler().spawn(
      hit_then_flush_then_miss(actor, enclave.address(64), &levels, &done));
  system_.scheduler().run_to_completion();
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], cache::HitLevel::kMemory);
  EXPECT_EQ(levels[1], cache::HitLevel::kL1);
  EXPECT_EQ(levels[2], cache::HitLevel::kMemory);
}

Process versions_hit_probe(Actor& actor, VirtAddr addr,
                           std::vector<mee::StopLevel>* levels, bool* done) {
  co_await actor.read(addr);
  co_await actor.clflush(addr);
  const auto r = co_await actor.read(addr);
  levels->push_back(*r.mee_level);
  *done = true;
}

TEST_F(SystemTest, ClflushDoesNotTouchMeeCache) {
  // The attack's core asymmetry (§3 challenge 1): after clflush the access
  // reaches DRAM again, but the versions line is still cached in the MEE.
  Actor actor(system_, CoreId{0}, CpuMode::kEnclave);
  sgx::Enclave enclave(actor, sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                                 16 * kPageSize});
  std::vector<mee::StopLevel> levels;
  bool done = false;
  system_.scheduler().spawn(
      versions_hit_probe(actor, enclave.address(0), &levels, &done));
  system_.scheduler().run_to_completion();
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0], mee::Level::kVersions);
}

Process writer_then_reader(Actor& writer, Actor& reader, VirtAddr waddr,
                           VirtAddr raddr, mem::Line payload, mem::Line* out,
                           bool* done) {
  co_await writer.write(waddr, payload);
  *out = (co_await reader.read(raddr)).data;
  *done = true;
}

TEST_F(SystemTest, DataVisibleAcrossEnclaveSharers) {
  // Two threads of the same enclave (same VAS would be ideal; here the
  // second actor maps the same frames) observe each other's plaintext.
  Actor writer(system_, CoreId{0}, CpuMode::kEnclave);
  sgx::Enclave enclave(writer, sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                                  4 * kPageSize});
  Actor reader(system_, CoreId{1}, CpuMode::kEnclave);
  for (std::uint64_t p = 0; p < enclave.page_count(); ++p)
    reader.vas().map_page(enclave.base() + p * kPageSize, enclave.frame(p));

  mem::Line payload;
  payload.fill(0x77);
  mem::Line out{};
  bool done = false;
  system_.scheduler().spawn(writer_then_reader(writer, reader,
                                               enclave.address(128),
                                               enclave.address(128), payload,
                                               &out, &done));
  system_.scheduler().run_to_completion();
  ASSERT_TRUE(done);
  EXPECT_EQ(out, payload);
}

TEST_F(SystemTest, NonEnclaveAccessToEpcFaults) {
  Actor enclave_owner(system_, CoreId{0}, CpuMode::kEnclave);
  sgx::Enclave enclave(enclave_owner,
                       sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                          4 * kPageSize});
  Actor intruder(system_, CoreId{1}, CpuMode::kNonEnclave);
  intruder.vas().map_page(VirtAddr{0x1000}, enclave.frame(0));

  bool done = false;
  AccessResult result;
  system_.scheduler().spawn(
      single_reader(intruder, VirtAddr{0x1000}, &result, &done));
  EXPECT_THROW(system_.scheduler().run_to_completion(), ModeViolation);
}

// ---------------------------------------------------------------- actors --

TEST_F(SystemTest, RdtscFaultsInEnclaveModeOnly) {
  Actor enclave_actor(system_, CoreId{0}, CpuMode::kEnclave);
  EXPECT_THROW(enclave_actor.read_timer(native_rdtsc_timer()), ModeViolation);
  Actor native_actor(system_, CoreId{1}, CpuMode::kNonEnclave);
  EXPECT_NO_THROW(native_actor.read_timer(native_rdtsc_timer()));
}

TEST_F(SystemTest, OcallTimerCostsThousands) {
  Actor actor(system_, CoreId{0}, CpuMode::kEnclave);
  for (int i = 0; i < 50; ++i) {
    const Cycles before = actor.now();
    actor.read_timer(ocall_timer());
    const Cycles cost = actor.now() - before;
    EXPECT_GE(cost, 8000u);
    EXPECT_LE(cost, 15000u);
  }
}

TEST_F(SystemTest, SharedClockCheapAndMonotonic) {
  Actor actor(system_, CoreId{0}, CpuMode::kEnclave);
  actor.advance(12345);
  Cycles prev = 0;
  for (int i = 0; i < 50; ++i) {
    const Cycles before = actor.now();
    const Cycles value = actor.read_timer(shared_clock_timer());
    EXPECT_EQ(actor.now() - before, 50u);
    EXPECT_LE(value, before);               // stale, never from the future
    EXPECT_GE(value + 20, before);          // stale by < one writer period
    EXPECT_GE(value, prev);
    prev = value;
  }
}

TEST_F(SystemTest, BusyWaitAndMfenceAdvanceClock) {
  Actor actor(system_, CoreId{0}, CpuMode::kEnclave);
  actor.busy_wait_until(1000);
  EXPECT_EQ(actor.now(), 1000u);
  actor.busy_wait_until(500);  // never backwards
  EXPECT_EQ(actor.now(), 1000u);
  actor.mfence();
  EXPECT_GT(actor.now(), 1000u);
}

// ----------------------------------------------------------------- noise --

TEST_F(SystemTest, StrideWalkerGeneratesMeeTraffic) {
  Actor noise(system_, CoreId{2}, CpuMode::kEnclave);
  sgx::Enclave enclave(noise, sgx::EnclaveConfig{VirtAddr{0x7200'0000'0000},
                                                 64 * kPageSize});
  system_.scheduler().spawn(mee_stride_walker(
      noise, StrideWalkerConfig{.base = enclave.base(),
                                .bytes = enclave.size(),
                                .stride = 4096,
                                .gap = 200}));
  system_.scheduler().run_until(200'000);
  EXPECT_GT(system_.mee().stats().reads, 100u);
}

TEST_F(SystemTest, MemoryStressorNeverTouchesMee) {
  Actor noise(system_, CoreId{2}, CpuMode::kNonEnclave);
  const VirtAddr buffer =
      map_general_buffer(noise, VirtAddr{0x2000'0000}, 64 * kPageSize);
  system_.scheduler().spawn(memory_stressor(
      noise, StressorConfig{.base = buffer, .bytes = 64 * kPageSize}));
  system_.scheduler().run_until(200'000);
  EXPECT_EQ(system_.mee().stats().reads, 0u);
  EXPECT_GT(system_.dram().access_count(), 100u);
}

TEST_F(SystemTest, BackgroundActivityRateFollowsMeanGap) {
  Actor bg(system_, CoreId{3}, CpuMode::kEnclave);
  sgx::Enclave enclave(bg, sgx::EnclaveConfig{VirtAddr{0x7300'0000'0000},
                                              64 * kPageSize});
  system_.scheduler().spawn(background_activity(
      bg, BackgroundConfig{.base = enclave.base(),
                           .bytes = enclave.size(),
                           .mean_gap = 20'000}));
  system_.scheduler().run_until(2'000'000);
  const auto reads = system_.mee().stats().reads;
  EXPECT_GT(reads, 50u);   // ~100 expected
  EXPECT_LT(reads, 200u);
}

Process write_then_read(Actor& actor, VirtAddr addr, mem::Line payload,
                        std::vector<AccessResult>* results, bool* done) {
  results->push_back(co_await actor.write(addr, payload));
  co_await actor.clflush(addr);
  results->push_back(co_await actor.read(addr));
  *done = true;
}

TEST_F(SystemTest, EnclaveWritePathEncryptsAndReadsBack) {
  Actor actor(system_, CoreId{0}, CpuMode::kEnclave);
  sgx::Enclave enclave(actor, sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                                 4 * kPageSize});
  mem::Line payload;
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i ^ 0xa5);
  std::vector<AccessResult> results;
  bool done = false;
  system_.scheduler().spawn(
      write_then_read(actor, enclave.address(0x300), payload, &results, &done));
  system_.scheduler().run_to_completion();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1].data, payload);
  // The writeback paid the MEE update path on top of the walk.
  EXPECT_GT(results[0].latency, results[1].latency);
  // Simulated DRAM holds ciphertext, not the payload.
  const PhysAddr paddr = actor.vas().translate(enclave.address(0x300));
  EXPECT_NE(system_.memory().read_line(paddr), payload);
}

TEST_F(SystemTest, GeneralWritePathStoresPlaintext) {
  Actor actor(system_, CoreId{1}, CpuMode::kNonEnclave);
  const VirtAddr buffer =
      map_general_buffer(actor, VirtAddr{0x3000'0000}, kPageSize);
  mem::Line payload;
  payload.fill(0x42);
  std::vector<AccessResult> results;
  bool done = false;
  system_.scheduler().spawn(
      write_then_read(actor, buffer + 128, payload, &results, &done));
  system_.scheduler().run_to_completion();
  ASSERT_TRUE(done);
  EXPECT_EQ(results[1].data, payload);
  const PhysAddr paddr = actor.vas().translate(buffer + 128);
  EXPECT_EQ(system_.memory().read_line(paddr), payload);
}

TEST_F(SystemTest, MapGeneralBufferRejectsBadArguments) {
  Actor actor(system_, CoreId{0}, CpuMode::kNonEnclave);
  EXPECT_THROW(map_general_buffer(actor, VirtAddr{0x1001}, kPageSize),
               CheckFailure);
  EXPECT_THROW(map_general_buffer(actor, VirtAddr{0x1000}, kPageSize + 1),
               CheckFailure);
}

TEST_F(SystemTest, MeeContentionDelaysBackToBackArrivals) {
  // Two accesses arriving (nearly) simultaneously from different cores: the
  // second queues behind the engine's service time.
  auto& mee = system_.mee();
  const PhysAddr a = system_.map().protected_data().base;
  const PhysAddr b = system_.map().protected_data().base + 512 * 1024;
  mee.read_line(CoreId{0}, a, nullptr, 1'000'000);
  const auto contended = mee.read_line(CoreId{1}, b, nullptr, 1'000'010);
  mee.mutable_cache().flush_all();
  const auto idle = mee.read_line(CoreId{1}, b, nullptr, 5'000'000);
  EXPECT_GT(contended.extra_latency, idle.extra_latency + 50);
}

TEST(SystemDeterminism, SameSeedSameTrace) {
  for (int run = 0; run < 2; ++run) {
    static std::vector<Cycles> first_latencies;
    System system(small_system_config(7));
    Actor actor(system, CoreId{0}, CpuMode::kEnclave);
    sgx::Enclave enclave(actor, sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                                   16 * kPageSize});
    std::vector<Cycles> latencies;
    bool done = false;
    auto proc = [](Actor& a, const sgx::Enclave& e, std::vector<Cycles>* out,
                   bool* flag) -> Process {
      for (int i = 0; i < 20; ++i) {
        const auto r = co_await a.read(e.address(i * kPageSize % e.size()));
        out->push_back(r.latency);
        co_await a.clflush(e.address(i * kPageSize % e.size()));
      }
      *flag = true;
    };
    system.scheduler().spawn(proc(actor, enclave, &latencies, &done));
    system.scheduler().run_to_completion();
    if (run == 0)
      first_latencies = latencies;
    else
      EXPECT_EQ(latencies, first_latencies);
  }
}

}  // namespace
}  // namespace meecc::sim
