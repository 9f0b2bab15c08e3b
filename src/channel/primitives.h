// Shared attack primitives used by the reverse-engineering algorithms and
// the covert channel. All are Tasks: they run on the calling agent's clock.
#pragma once

#include <vector>

#include "channel/classify.h"
#include "common/types.h"
#include "sim/actor.h"
#include "sim/timer.h"

namespace meecc::channel {

/// Loads `addr` and immediately clflushes it: the data line leaves the CPU
/// hierarchy but its versions line stays in the MEE cache — the core
/// primitive of the attack (paper §3 challenge 1).
inline sim::Task<> touch_and_flush(sim::Actor& actor, VirtAddr addr) {
  co_await actor.read(addr);
  co_await actor.clflush(addr);
}

/// access+flush over a whole set, in order. The pair is spelled out rather
/// than awaited through touch_and_flush: this loop is the bulk of every
/// Algorithm 1 run, and a child Task frame per pair is measurable there.
inline sim::Task<> prime_pass(sim::Actor& actor,
                              const std::vector<VirtAddr>& set) {
  for (const VirtAddr addr : set) {
    co_await actor.read(addr);
    co_await actor.clflush(addr);
  }
}

/// Measures one read of `addr` with the hyperthread shared clock (the only
/// usable enclave-mode timer, Fig. 2c) and flushes the line after.
inline sim::Task<Cycles> timed_probe(sim::Actor& actor, VirtAddr addr) {
  const sim::TimerModel timer = sim::shared_clock_timer();
  const Cycles before = actor.read_timer(timer);
  co_await actor.read(addr);
  const Cycles after = actor.read_timer(timer);
  co_await actor.clflush(addr);
  co_return after - before;
}

/// Seeds `classifier` with a robust versions-hit baseline: the first probe
/// loads `addr`'s versions line, the following `samples` probes hit it.
inline sim::Task<> calibrate_on_hits(sim::Actor& actor, VirtAddr addr,
                                     AdaptiveClassifier& classifier,
                                     int samples = 5) {
  co_await timed_probe(actor, addr);  // load
  std::vector<double> hits;
  hits.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i)
    hits.push_back(static_cast<double>(co_await timed_probe(actor, addr)));
  classifier.calibrate_from_samples(std::move(hits));
}

/// Algorithm 2's two-phase eviction: forward access+flush pass, fence, then
/// backward pass — defeats the MEE cache's approximate-LRU replacement,
/// which a single linear pass does not reliably flush (paper §5.3).
inline sim::Task<> evict_two_phase(sim::Actor& actor,
                                   const std::vector<VirtAddr>& set) {
  // Pairs spelled out, as in prime_pass.
  for (const VirtAddr addr : set) {
    co_await actor.read(addr);
    co_await actor.clflush(addr);
  }
  actor.mfence();
  for (auto it = set.rbegin(); it != set.rend(); ++it) {
    co_await actor.read(*it);
    co_await actor.clflush(*it);
  }
}

/// Algorithm 1's `eviction test`: load the victim's versions line, stream
/// the candidate set through the MEE cache, then measure the victim again.
/// Returns the measured victim latency (hit ⇒ survived, miss ⇒ evicted).
///
/// Deviation from the paper's pseudocode: the set is streamed with TWO
/// rounds of the §5.3 forward+backward pass over a freshly shuffled order,
/// rather than a single forward loop. Under the MEE cache's approximate LRU
/// a single forward pass almost never displaces the just-loaded victim
/// (exactly the behaviour §5.3 reports), and even one forward+backward round
/// deterministically fails from a measurable fraction of tree-PLRU states —
/// repeating it would fail identically every repeat. Shuffling the order
/// decorrelates repeats, so the caller's median vote converges.
inline sim::Task<Cycles> eviction_test(sim::Actor& actor,
                                       const std::vector<VirtAddr>& set,
                                       VirtAddr victim) {
  co_await touch_and_flush(actor, victim);
  actor.mfence();
  std::vector<VirtAddr> order = set;
  actor.rng().shuffle(order);
  co_await evict_two_phase(actor, order);
  actor.mfence();
  co_await evict_two_phase(actor, order);
  actor.mfence();
  co_return co_await timed_probe(actor, victim);
}


}  // namespace meecc::channel
