#include "sim/des.h"

#include <algorithm>

#include "common/check.h"

namespace meecc::sim {

Process::~Process() {
  // A Process still holding its handle was never spawned; destroy it here.
  if (handle_) handle_.destroy();
}

void Process::promise_type::FinalNotify::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept {
  // Leaves the coroutine suspended at its final suspend point; the
  // scheduler reclaims it (and surfaces any stored exception) right after
  // the resume() that got us here returns.
  if (Scheduler* scheduler = h.promise().scheduler)
    scheduler->note_finished(h);
}

Scheduler::~Scheduler() {
  for (auto handle : owned_)
    if (handle) handle.destroy();
}

void Scheduler::set_hub(obs::Hub* hub) {
  if (hub == nullptr) {
    spawned_ = scheduled_ = dispatched_ = obs::Counter{};
    return;
  }
  auto group = hub->registry().group("des");
  spawned_ = group.counter("spawned");
  scheduled_ = group.counter("scheduled");
  dispatched_ = group.counter("dispatched");
}

ProcessHandle Scheduler::spawn(Process process, Cycles start) {
  MEECC_CHECK(process.handle_);
  auto handle = process.handle_;
  process.handle_ = nullptr;  // ownership moves to the scheduler
  handle.promise().scheduler = this;
  handle.promise().owned_index = owned_.size();
  owned_.push_back(handle);
  spawned_.inc();
  enqueue(handle, start);
  return ProcessHandle{handle};
}

bool Scheduler::cancel(ProcessHandle handle) {
  const auto target = handle.handle_;
  if (!target) return false;
  // Staleness check by address only — a stale handle's frame is destroyed,
  // so its promise must not be read. O(live agents), which is tiny (the
  // only cancel site is the environment-agent quiesce).
  const auto it = std::find(owned_.begin(), owned_.end(), target);
  if (it == owned_.end()) return false;
  const auto index = static_cast<std::size_t>(it - owned_.begin());
  for (const auto finished : finished_)
    MEECC_CHECK_MSG(finished != target, "cancel of an agent mid-completion");
  // Drop the agent's pending events from every bucket. Compaction keeps
  // the survivors' relative order, so sibling ordering is unchanged and no
  // new sequence numbers are consumed. In the draining epoch only the
  // not-yet-dispatched tail is pending — entries before epoch_pos_ already
  // ran (and may reference destroyed frames, so they must not be compared).
  for (std::uint32_t slot = 0; slot < buckets_.size(); ++slot) {
    TimeBucket& bucket = buckets_[slot];
    if (!bucket.live) continue;
    const bool is_epoch = epoch_active_ && slot == epoch_slot_;
    std::size_t out = is_epoch ? epoch_pos_ : 0;
    for (std::size_t i = out; i < bucket.ready.size(); ++i) {
      if (bucket.ready[i].address() != target.address())
        bucket.ready[out++] = bucket.ready[i];
      else
        --pending_;
    }
    bucket.ready.resize(out);
    // An emptied non-epoch bucket is recycled here; its timestamp stays in
    // times_ and is skipped lazily — except the on-deck bucket, which has
    // no heap entry to go stale and must be dropped eagerly. The epoch
    // bucket retires normally.
    if (!is_epoch && bucket.ready.empty()) {
      bucket.live = false;
      if (slot == ondeck_slot_) ondeck_slot_ = kNoBucket;
      free_buckets_.push_back(slot);
    }
  }
  owned_[index] = owned_.back();
  owned_[index].promise().owned_index = index;
  owned_.pop_back();
  target.destroy();
  return true;
}

void Scheduler::restore_clock(Cycles now, std::uint64_t seq) {
  MEECC_CHECK_MSG(pending_ == 0 && owned_.empty() && finished_.empty(),
                  "restore_clock needs a quiesced scheduler");
  MEECC_CHECK_MSG(ondeck_slot_ == kNoBucket,
                  "a quiesced scheduler cannot hold an on-deck bucket");
  now_ = now;
  seq_ = seq;
}

void Scheduler::park_bucket(std::uint32_t slot, Cycles when) {
  if (ondeck_slot_ != kNoBucket && when < buckets_[ondeck_slot_].when) {
    // The new bucket preempts the on-deck one (strictly earlier beats the
    // older creation seq); the demoted incumbent re-enters the heap, where
    // it still precedes every existing entry.
    const TimeBucket& old = buckets_[ondeck_slot_];
    times_.push(TimeRef{old.when, old.seq, ondeck_slot_});
    ondeck_slot_ = slot;
  } else {
    times_.push(TimeRef{when, buckets_[slot].seq, slot});
  }
}

std::uint32_t Scheduler::grow_buckets() {
  const auto slot = static_cast<std::uint32_t>(buckets_.size());
  buckets_.emplace_back();
  return slot;
}

void Scheduler::retire_epoch() {
  TimeBucket& bucket = buckets_[epoch_slot_];
  bucket.ready.clear();  // keeps capacity for the slot's next tenant
  bucket.live = false;
  if (spare_slot_ == kNoBucket)
    spare_slot_ = epoch_slot_;
  else
    free_buckets_.push_back(epoch_slot_);
  epoch_active_ = false;
  epoch_pos_ = 0;
}

std::coroutine_handle<> Scheduler::take_next(Cycles limit) {
  if (epoch_active_) {
    TimeBucket& bucket = buckets_[epoch_slot_];
    if (epoch_pos_ < bucket.ready.size()) {
      if (bucket.when > limit) return nullptr;
      --pending_;
      return bucket.ready[epoch_pos_++];
    }
    // Fused rotate — the serial-simulation hot path: the drained epoch
    // retires and the on-deck bucket opens in one step, handing out its
    // first event with zero heap traffic.
    if (ondeck_slot_ != kNoBucket) {
      TimeBucket& next = buckets_[ondeck_slot_];
      if (next.when <= limit) {
        bucket.ready.clear();
        bucket.live = false;
        if (spare_slot_ == kNoBucket)
          spare_slot_ = epoch_slot_;
        else
          free_buckets_.push_back(epoch_slot_);
        epoch_slot_ = ondeck_slot_;
        ondeck_slot_ = kNoBucket;
        now_ = next.when;
        epoch_pos_ = 1;
        --pending_;
        return next.ready.front();
      }
    }
  }
  return take_next_cold(limit);
}

std::coroutine_handle<> Scheduler::take_next_cold(Cycles limit) {
  if (epoch_active_) retire_epoch();
  if (ondeck_slot_ != kNoBucket) {
    // By invariant the on-deck bucket precedes every heap entry, so it
    // opens as the next epoch without touching the heap.
    if (buckets_[ondeck_slot_].when > limit) return nullptr;
    epoch_slot_ = ondeck_slot_;
    ondeck_slot_ = kNoBucket;
  } else {
    // Pop the next genuine entry (cancel() may have left stale ones — the
    // seq check also rejects a recycled slot's new tenant, which has its
    // own entry) and open its bucket as the new epoch.
    for (;;) {
      if (times_.empty()) return nullptr;
      const TimeRef next = times_.top();
      const TimeBucket& bucket = buckets_[next.slot];
      if (!bucket.live || bucket.when != next.when || bucket.seq != next.seq) {
        times_.pop();  // stale: emptied by cancel, slot possibly recycled
        continue;
      }
      if (next.when > limit) return nullptr;
      times_.pop();
      epoch_slot_ = next.slot;
      break;
    }
  }
  // An opened bucket always holds at least one event (cancel frees emptied
  // buckets), so hand its first one out directly.
  TimeBucket& bucket = buckets_[epoch_slot_];
  epoch_active_ = true;
  now_ = bucket.when;
  epoch_pos_ = 1;
  --pending_;
  return bucket.ready.front();
}

void Scheduler::reap_finished() {
  while (!finished_.empty()) {
    const auto handle = finished_.back();
    finished_.pop_back();
    // Swap-remove from owned_; the displaced tail entry inherits the slot.
    const std::size_t index = handle.promise().owned_index;
    owned_[index] = owned_.back();
    owned_[index].promise().owned_index = index;
    owned_.pop_back();
    const std::exception_ptr ex = handle.promise().exception;
    handle.destroy();
    // Rethrow from the dispatch in which the agent died, matching the old
    // scan-based behaviour. Any other agents that finished in the same
    // dispatch stay queued in finished_ (and in owned_) and are reclaimed
    // on the next dispatch or at scheduler destruction.
    if (ex) std::rethrow_exception(ex);
  }
}

void Scheduler::dispatch(std::coroutine_handle<> handle) {
  // now_ was set when the handle's epoch was opened (all its events share
  // that timestamp). The caller holds the arena scope: installing it once
  // per run loop instead of per dispatch keeps the two thread-local writes
  // off the per-event path.
  dispatched_.inc();
  ++dispatch_count_;
  handle.resume();
  if (!finished_.empty()) reap_finished();
}

std::uint64_t Scheduler::run_loop(Cycles limit, const bool* stop) {
  // Child Task frames created while agents run allocate (and freed frames
  // recycle) through this scheduler's arena.
  FrameArena::Scope scope(&arena_);
  // Opens the inline window for this loop and restores the enclosing one
  // on every exit, exceptions included.
  struct InlineWindow {
    Scheduler& s;
    bool saved_open;
    Cycles saved_limit;
    const bool* saved_stop;
    ~InlineWindow() {
      s.inline_open_ = saved_open;
      s.inline_limit_ = saved_limit;
      s.stop_ = saved_stop;
    }
  } window{*this, inline_open_, inline_limit_, stop_};
  inline_open_ = true;
  inline_limit_ = limit;
  stop_ = stop;
  const std::uint64_t start = dispatch_count_;
  while (!*stop) {
    const auto handle = take_next(limit);
    if (!handle) break;
    dispatch(handle);
  }
  return dispatch_count_ - start;
}

std::uint64_t Scheduler::run_until(Cycles until) {
  return run_loop(until, &kNeverStop);
}

std::uint64_t Scheduler::run_to_completion() {
  return run_loop(kNoLimit, &kNeverStop);
}

std::uint64_t Scheduler::run_until_flag(const bool& flag, Cycles until) {
  return run_loop(until, &flag);
}

bool Scheduler::step() {
  const auto handle = take_next(kNoLimit);
  if (!handle) return false;
  FrameArena::Scope scope(&arena_);
  dispatch(handle);  // the inline window is closed outside run_loop
  return true;
}

}  // namespace meecc::sim
