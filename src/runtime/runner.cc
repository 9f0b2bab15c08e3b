#include "runtime/runner.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/mpsc_queue.h"
#include "obs/scope.h"
#include "runtime/bed_pool.h"
#include "runtime/setup_cache.h"
#include "runtime/sink.h"

namespace meecc::runtime {

namespace {

/// Per-in-flight-trial trace buffer: holds one trial's events until the
/// committer replays them into the real sink in trial order. TraceEvent
/// string fields point at static storage by contract, so buffering is
/// safe. Buffers ride the result queue and are recycled through it, so a
/// traced parallel sweep holds one buffer per in-flight trial — not one
/// per campaign trial as the old per-sweep vector did.
class BufferSink : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& event) override { events_.push_back(event); }
  void replay_into(obs::TraceSink& sink) const {
    for (const auto& event : events_) sink.emit(event);
  }
  void clear() { events_.clear(); }

 private:
  std::vector<obs::TraceEvent> events_;
};

/// One finished trial in flight from a worker to the committer. Strings
/// and the trace buffer circulate through the queue's swap-based exchange
/// (see common/mpsc_queue.h), so the steady-state hot path reuses their
/// capacity instead of reallocating per trial.
struct ResultMsg {
  std::size_t index = 0;
  TrialRecord record;
  std::string line;  ///< encoded JSONL + '\n' when streaming
  std::unique_ptr<BufferSink> trace;
};

TrialRecord run_one(const Experiment& experiment, const TrialSpec& spec,
                    obs::TraceSink* trace_sink, SetupCache* setup_cache,
                    BedPool* bed_pool) {
  TrialRecord record;
  record.spec = spec;
  // Ambient contexts: every System the trial constructs inherits the trace
  // sink and deposits its counters into the scope on destruction
  // (including during unwinding when the trial throws), and
  // memoized_setup() calls inside run() reach the sweep's SetupCache.
  TrialContext context(setup_cache, bed_pool);
  obs::TrialScope scope(trace_sink);
  try {
    record.result = experiment.run(spec);
    record.ok = true;
  } catch (const std::exception& e) {
    record.error = e.what();
  } catch (...) {
    record.error = "unknown exception";
  }
  record.counters = scope.counters();
  return record;
}

/// The sweep's work list. Without declared setups (or with reuse off) it
/// is the trials in order. Otherwise every distinct declared key is also
/// one setup item, placed `lookahead` trials ahead of the first trial that
/// declares it, so another worker is already resolving it when that trial
/// starts instead of the trial discovering — and blocking on — it. Each
/// key is refcounted (its declaring trials plus its own item); whoever
/// drops the last reference releases the state from the cache.
class WorkPlan {
 public:
  struct Item {
    std::size_t index;  ///< trial index, or setup index when `setup`
    bool setup;
  };

  WorkPlan(const Experiment& experiment, std::span<const TrialSpec> trials,
           SetupCache* cache, std::size_t lookahead)
      : experiment_(experiment), trials_(trials), cache_(cache) {
    if (cache == nullptr || !experiment.setups) return;
    std::unordered_map<std::string, std::uint32_t> ids;
    key_begin_.reserve(trials.size() + 1);
    key_begin_.push_back(0);
    for (std::size_t i = 0; i < trials.size(); ++i) {
      std::vector<std::string> keys;
      try {
        keys = experiment.setups.keys(trials[i]);
      } catch (...) {
        keys.clear();  // declares nothing; run() meets the same error
      }
      for (std::size_t slot = 0; slot < keys.size(); ++slot) {
        const auto [it, fresh] = ids.try_emplace(
            std::move(keys[slot]), static_cast<std::uint32_t>(setups_.size()));
        if (fresh) setups_.push_back({it->first, i, slot});
        key_ids_.push_back(it->second);
      }
      key_begin_.push_back(key_ids_.size());
    }
    if (setups_.empty()) {
      key_begin_.clear();
      key_ids_.clear();
      return;
    }
    refs_ = std::vector<std::atomic<std::uint32_t>>(setups_.size());
    for (auto& ref : refs_) ref.store(1, std::memory_order_relaxed);
    for (const std::uint32_t id : key_ids_)
      refs_[id].fetch_add(1, std::memory_order_relaxed);
    // Setups are numbered in order of their first declaring trial, so one
    // merge pass places each `lookahead` trials ahead of it.
    items_.reserve(trials.size() + setups_.size());
    std::size_t next_setup = 0;
    for (std::size_t i = 0; i < trials.size(); ++i) {
      for (; next_setup < setups_.size() &&
             setups_[next_setup].trial <= i + lookahead;
           ++next_setup)
        items_.push_back(trials.size() + next_setup);
      items_.push_back(i);
    }
  }

  std::size_t size() const {
    return items_.empty() ? trials_.size() : items_.size();
  }

  Item at(std::size_t position) const {
    if (items_.empty()) return {position, false};
    const std::size_t value = items_[position];
    if (value < trials_.size()) return {value, false};
    return {value - trials_.size(), true};
  }

  /// Resolves setup item `setup` through the cache (memory, store, build)
  /// under a bed-pool-free TrialContext, then drops the item's reference.
  void resolve(std::size_t setup) {
    const Setup& item = setups_[setup];
    {
      TrialContext context(cache_);
      try {
        experiment_.setups.resolve(trials_[item.trial], item.slot);
      } catch (...) {
        // The cache keeps the failure; each declaring trial's own fetch
        // rethrows it unchanged, and the error is recorded there.
      }
    }
    unref(setup);
  }

  /// Drops finished trial `trial`'s references to the keys it declared.
  void finish(std::size_t trial) {
    if (setups_.empty()) return;
    for (std::size_t j = key_begin_[trial]; j < key_begin_[trial + 1]; ++j)
      unref(key_ids_[j]);
  }

 private:
  struct Setup {
    std::string key;
    std::size_t trial;  ///< first declaring trial
    std::size_t slot;   ///< the key's position in that trial's keys()
  };

  void unref(std::size_t setup) {
    if (refs_[setup].fetch_sub(1, std::memory_order_acq_rel) == 1)
      cache_->release(setups_[setup].key);
  }

  const Experiment& experiment_;
  std::span<const TrialSpec> trials_;
  SetupCache* cache_;
  std::vector<Setup> setups_;
  /// Declared keys of trial i: key_ids_[key_begin_[i] .. key_begin_[i+1]).
  std::vector<std::size_t> key_begin_;
  std::vector<std::uint32_t> key_ids_;
  std::vector<std::atomic<std::uint32_t>> refs_;
  /// Work list: values below trials_.size() are trials, the rest setups
  /// offset by trials_.size(). Empty when the list is just the trials.
  std::vector<std::size_t> items_;
};

/// Single-consumer side of the result path: restores trial order with a
/// reorder buffer, replays trace buffers, batches stream commits, and
/// optionally retires records into the caller's vector. Runs inline on
/// the calling thread at jobs<=1 and on the committer thread otherwise —
/// never on more than one thread, so it needs no locks.
class CommitPipeline {
 public:
  /// `watermark`, when non-null, is published after every advance so
  /// workers can stay within kReorderWindow of it.
  CommitPipeline(const RunnerConfig& config, std::vector<TrialRecord>* records,
                 std::atomic<std::size_t>* watermark)
      : config_(config), records_(records), watermark_(watermark) {
    if (config_.stream != nullptr) batch_.resize(kCommitBatch);
  }

  /// Consumes one finished trial, in any completion order. on_trial fires
  /// here (completion order); everything order-sensitive waits for the
  /// contiguous prefix.
  void feed(ResultMsg& msg) {
    if (config_.on_trial) config_.on_trial(msg.record);
    if (msg.index != next_) {
      pending_.emplace(msg.index, std::move(msg));
      return;
    }
    retire(msg);
    ++next_;
    while (!pending_.empty() && pending_.begin()->first == next_) {
      retire(pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++next_;
    }
    if (watermark_ != nullptr) {
      watermark_->store(next_);
      watermark_->notify_all();
    }
  }

  /// Commits whatever in-order lines are batched (partial batch). Called
  /// when the queue runs dry so a slow producer never leaves durable-ready
  /// lines sitting in memory, and from finish().
  void flush_batch() {
    if (batch_used_ == 0) return;
    config_.stream->commit(batch_first_, batch_.data(), batch_used_);
    batch_used_ = 0;
  }

  void finish() { flush_batch(); }

 private:
  /// Trial-order retirement: trace replay, stream batching, record keep.
  void retire(ResultMsg& msg) {
    if (msg.trace && config_.trace_sink != nullptr)
      msg.trace->replay_into(*config_.trace_sink);
    if (config_.stream != nullptr) {
      if (batch_used_ == 0) batch_first_ = msg.index;
      // Swap, not copy: the stale committed line's capacity goes back to
      // the message (and through the queue to a worker).
      batch_[batch_used_].swap(msg.line);
      if (++batch_used_ == kCommitBatch) flush_batch();
    }
    if (records_ != nullptr) (*records_)[msg.index] = std::move(msg.record);
  }

  const RunnerConfig& config_;
  std::vector<TrialRecord>* records_;
  std::atomic<std::size_t>* watermark_;
  std::size_t next_ = 0;
  /// Results that finished ahead of their turn, keyed by trial index.
  /// Fewer than kReorderWindow: no worker starts a trial that far past
  /// next_.
  std::map<std::size_t, ResultMsg> pending_;
  std::vector<std::string> batch_;
  std::size_t batch_first_ = 0;
  std::size_t batch_used_ = 0;
};

/// Results queued from workers to the committer. At least the reorder
/// window, so a push never waits on the committer.
constexpr std::size_t kQueueCapacity = 256;
static_assert(kReorderWindow <= kQueueCapacity);

}  // namespace

std::vector<TrialRecord> run_trials(const Experiment& experiment,
                                    std::span<const TrialSpec> trials,
                                    const RunnerConfig& config,
                                    SetupStats* stats) {
  std::vector<TrialRecord> records(config.keep_records ? trials.size() : 0);
  std::vector<TrialRecord>* kept = config.keep_records ? &records : nullptr;

  unsigned jobs = config.jobs ? config.jobs : std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  jobs = static_cast<unsigned>(
      std::min<std::size_t>(jobs, std::max<std::size_t>(trials.size(), 1)));

  // Sinks are single-threaded; parallel traced sweeps write each trial's
  // events into a buffer that rides the queue, and the committer replays
  // buffers in trial order.
  const bool buffer_traces = config.trace_sink != nullptr && jobs > 1;
  const bool encode = config.stream != nullptr;

  // Setup reuse is off while tracing: setup-phase events would fire once
  // per shared state instead of once per trial, breaking trace diffs.
  const bool reuse =
      config.reuse_setup && experiment.setups && config.trace_sink == nullptr;
  SetupCache setup_cache;
  if (reuse) setup_cache.attach_store(config.setup_store);
  SetupCache* cache_ptr = reuse ? &setup_cache : nullptr;
  // One plan for both paths. The lookahead is the worker count: by the
  // time a trial starts, the setup items placed `jobs` positions earlier
  // have been claimed by the other workers.
  WorkPlan plan(experiment, trials, cache_ptr, jobs);
  // Bed recycling is also off while tracing — a recycled bed skips the
  // construction-phase events a fresh one would emit.
  const bool recycle = config.recycle_systems && config.trace_sink == nullptr;

  // Runs trial `i` into `msg` (record, index, encoded line) and drops its
  // references to the setups it declared.
  const auto run_trial = [&](std::size_t i, obs::TraceSink* sink,
                             BedPool& bed_pool, ResultMsg& msg) {
    msg.record = run_one(experiment, trials[i], sink, cache_ptr,
                         recycle ? &bed_pool : nullptr);
    plan.finish(i);
    msg.index = i;
    if (encode) {
      msg.line.clear();
      append_json_line(msg.line, msg.record);
      msg.line.push_back('\n');
    }
  };

  std::atomic<std::uint64_t> bed_recycles{0};
  std::atomic<std::uint64_t> bed_discards{0};

  if (jobs <= 1) {
    // Fully inline: no queue, no threads; trace events go straight to the
    // sink and exceptions from on_trial / stream->commit propagate
    // naturally to the caller.
    CommitPipeline pipeline(config, kept, nullptr);
    BedPool bed_pool;
    ResultMsg msg;
    for (std::size_t p = 0; p < plan.size(); ++p) {
      const WorkPlan::Item item = plan.at(p);
      if (item.setup) {
        plan.resolve(item.index);
        continue;
      }
      run_trial(item.index, config.trace_sink, bed_pool, msg);
      pipeline.feed(msg);
    }
    pipeline.finish();
    bed_recycles.store(bed_pool.recycles(), std::memory_order_relaxed);
    bed_discards.store(bed_pool.discards(), std::memory_order_relaxed);
  } else {
    // Workers claim work-list positions in order; the committer owns the
    // pipeline. Both park on atomics instead of spinning: the committer on
    // `signal` (bumped per push and once when the workers are done), a
    // worker on `watermark` when its trial is kReorderWindow ahead of it.
    MpscQueue<ResultMsg> queue(kQueueCapacity);
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> watermark{0};
    std::atomic<std::uint32_t> signal{0};
    std::atomic<bool> producers_done{false};
    CommitPipeline pipeline(config, kept, &watermark);

    // First-exception capture: whoever claims the flag stores their
    // exception; everyone stops, and parked workers are woken to see it.
    // Rethrown after the joins.
    std::atomic<bool> stop{false};
    std::atomic<bool> error_claimed{false};
    std::exception_ptr first_error;
    auto claim_error = [&] {
      if (!error_claimed.exchange(true)) first_error = std::current_exception();
      stop.store(true);
      watermark.fetch_add(1);
      watermark.notify_all();
    };

    auto worker = [&] {
      BedPool bed_pool;
      try {
        ResultMsg msg;
        for (;;) {
          if (stop.load(std::memory_order_relaxed)) break;
          const std::size_t p = next.fetch_add(1, std::memory_order_relaxed);
          if (p >= plan.size()) break;
          const WorkPlan::Item item = plan.at(p);
          if (item.setup) {
            plan.resolve(item.index);
            continue;
          }
          const std::size_t i = item.index;
          for (std::size_t mark = watermark.load();
               i >= mark + kReorderWindow && !stop.load();
               mark = watermark.load())
            watermark.wait(mark);
          if (stop.load()) break;
          obs::TraceSink* sink = config.trace_sink;
          if (buffer_traces) {
            // Recycle the buffer the queue handed back; allocate only
            // when this worker has none in hand.
            if (msg.trace)
              msg.trace->clear();
            else
              msg.trace = std::make_unique<BufferSink>();
            sink = msg.trace.get();
          }
          run_trial(i, sink, bed_pool, msg);
          queue.push(msg);
          signal.fetch_add(1);
          signal.notify_one();
        }
      } catch (...) {
        claim_error();
      }
      bed_recycles.fetch_add(bed_pool.recycles(), std::memory_order_relaxed);
      bed_discards.fetch_add(bed_pool.discards(), std::memory_order_relaxed);
    };

    auto committer = [&] {
      ResultMsg msg;
      bool failed = false;
      const auto guarded = [&](auto&& step) {
        if (failed) return;
        try {
          step();
        } catch (...) {
          failed = true;
          claim_error();
        }
      };
      for (;;) {
        // Read before draining: a push or the done signal landing after
        // this read changes `signal`, so the wait below returns at once.
        const std::uint32_t seen = signal.load();
        const bool done = producers_done.load();
        // After a failure keep draining (and discarding) so no producer
        // is left holding a message; only then may we leave.
        while (queue.try_pop(msg)) guarded([&] { pipeline.feed(msg); });
        // Queue ran dry: push the partial batch out rather than sit on
        // durable-ready lines.
        guarded([&] { pipeline.flush_batch(); });
        if (done) break;
        signal.wait(seen);
      }
      guarded([&] { pipeline.finish(); });
    };

    std::thread commit_thread(committer);
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) workers.emplace_back(worker);
    for (auto& thread : workers) thread.join();
    producers_done.store(true);
    signal.fetch_add(1);
    signal.notify_one();
    commit_thread.join();
    if (first_error) std::rethrow_exception(first_error);
  }

  if (stats != nullptr)
    *stats = SetupStats{
        .memory_hits = setup_cache.memory_hits(),
        .disk_hits = setup_cache.disk_hits(),
        .builds = setup_cache.builds(),
        .bed_recycles = bed_recycles.load(std::memory_order_relaxed),
        .bed_discards = bed_discards.load(std::memory_order_relaxed)};
  return records;
}

}  // namespace meecc::runtime
