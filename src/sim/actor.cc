#include "sim/actor.h"

#include "common/check.h"

namespace meecc::sim {

AccessResult MemOpAwaitable::await_resume() {
  System& system = actor_.system();
  AccessResult result;
  switch (op_) {
    case Op::kRead:
      result = system.do_read(actor_.core(), actor_.mode(), actor_.vas(),
                              addr_, actor_.now());
      break;
    case Op::kWrite:
      result = system.do_write(actor_.core(), actor_.mode(), actor_.vas(),
                               addr_, *data_, actor_.now());
      break;
    case Op::kFlush:
      result.latency = system.do_clflush(actor_.vas(), addr_);
      break;
  }
  actor_.advance(result.latency);
  return result;
}

Actor::Actor(System& system, CoreId core, CpuMode mode)
    : system_(system), core_(core), mode_(mode), rng_(system.fork_rng()) {
  MEECC_CHECK(core.value < system.config().cores);
}

WakeAt Actor::sleep_until(Cycles when) {
  if (when > now_) now_ = when;
  return WakeAt{scheduler(), now_};
}

void Actor::mfence() { now_ += system_.config().hierarchy.mfence_latency; }

Cycles Actor::read_timer(const TimerModel& timer) {
  switch (timer.kind) {
    case TimerKind::kNativeRdtsc: {
      if (mode_ == CpuMode::kEnclave)
        throw ModeViolation("rdtsc is not available in enclave mode (SGX v1)");
      now_ += timer.read_cost;
      return now_;
    }
    case TimerKind::kOcall: {
      // The OCALL round trip dominates; the reading itself lands somewhere
      // inside the window, modelled as the midpoint.
      const auto cost = static_cast<Cycles>(
          rng_.next_in(static_cast<std::int64_t>(timer.ocall_cost_min),
                       static_cast<std::int64_t>(timer.ocall_cost_max)));
      const Cycles value = now_ + cost / 2;
      now_ += cost;
      return value;
    }
    case TimerKind::kSharedClock: {
      // The mailbox holds the writer's most recent rdtsc: our reading is
      // stale by the phase within the writer period.
      const Cycles value = now_ - now_ % timer.writer_period;
      now_ += timer.read_cost;
      return value;
    }
  }
  MEECC_CHECK_MSG(false, "bad timer kind");
  return 0;
}

void Actor::busy_wait_until(Cycles target) {
  if (target > now_) now_ = target;
}

}  // namespace meecc::sim
