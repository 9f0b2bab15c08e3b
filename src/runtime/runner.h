// The parallel trial runner.
//
// Each trial runs on its own sim::System, built from its TrialSpec or
// forked from an immutable shared warm setup, and every trial's seed comes
// from the spec, so output is bit-identical at any job count. What trials
// do share is setup work: an experiment declares the warm setups each
// trial needs (Experiment::setups), and the runner turns a sweep into one
// work list — every trial in order, plus one setup item per distinct key,
// placed `jobs` trials ahead of the first trial that declares it. Workers
// claim positions in list order, so setups are resolved (memory, on-disk
// store, or build) in parallel ahead of their trials instead of trials
// blocking on one another's in-flight builds, and each state is released
// after the last trial that declared it finishes.
//
// Results leave the pool two ways, composable per RunnerConfig:
//   - the in-memory API: run_trials returns a vector in trial order
//     (keep_records, the default);
//   - the streaming path: workers encode each finished record into a JSONL
//     line off any lock and hand it through a bounded lock-free MPSC queue
//     to a single committer, which restores trial order and feeds a
//     ResultStream in contiguous batches. With keep_records=false nothing
//     accumulates, so peak RSS is independent of trial count — the mode
//     campaigns and `meecc_bench run --streaming` use.
// Workers start no trial kReorderWindow or more past the committer's
// in-order watermark, which bounds the reorder buffer and the resident
// warm states; the committer and any worker held at that bound park on
// atomics rather than spin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "obs/trace.h"
#include "runtime/experiment.h"

namespace meecc::runtime {

class SetupStore;

struct TrialRecord {
  TrialSpec spec;
  TrialResult result;  ///< valid when ok
  bool ok = false;
  std::string error;  ///< exception text when !ok
  /// Every counter of every System the trial built, merged and sorted.
  /// Collected via the ambient obs::TrialScope the runner installs —
  /// experiments never mention observability. Empty when the trial built
  /// no System.
  obs::CounterSnapshot counters;
};

/// Consumer of the streaming result path. The runner calls commit() with
/// newline-terminated JSONL lines (append_json_line bytes) covering trial
/// positions [first, first + count) of the trials passed to run_trials —
/// always contiguous, always in order, each position exactly once across
/// the run. Calls arrive on the committer thread (jobs > 1) or
/// the calling thread (jobs <= 1), never concurrently. An exception thrown
/// from commit() stops the sweep and rethrows from run_trials.
class ResultStream {
 public:
  virtual ~ResultStream() = default;
  virtual void commit(std::size_t first, const std::string* lines,
                      std::size_t count) = 0;
};

struct RunnerConfig {
  unsigned jobs = 1;  ///< worker threads; 0 means hardware_concurrency()
  /// Completion callback (progress reporting). Called in completion order
  /// — NOT trial order — from the committer thread (jobs > 1) or the
  /// calling thread (jobs <= 1); never concurrently with itself or with
  /// stream->commit. An exception thrown here stops the sweep and
  /// rethrows from run_trials.
  std::function<void(const TrialRecord&)> on_trial;
  /// Streaming consumer (see ResultStream). Non-null turns on worker-side
  /// JSONL encoding and the committer pipeline; lines are committed in
  /// trial-order batches of up to kCommitBatch.
  ResultStream* stream = nullptr;
  /// When false, run_trials returns an empty vector and each TrialRecord
  /// is dropped as soon as the committer has passed it to on_trial /
  /// stream — bounded memory for million-trial campaigns. Callers get
  /// results via stream/on_trial only.
  bool keep_records = true;
  /// Borrowed trace sink. Sinks are single-threaded by contract; with
  /// jobs > 1 the runner buffers each trial's events in a per-in-flight
  /// buffer and the committer replays the buffers into the sink in trial
  /// order, so traced sweeps parallelize and the output is byte-identical
  /// to jobs=1.
  obs::TraceSink* trace_sink = nullptr;
  /// Reuse warm setup state across trials that declare the same key
  /// (Experiment::setups; snapshot/fork execution), scheduling each
  /// distinct setup as its own work item. Ignored for experiments that
  /// declare no setups, and disabled automatically while tracing:
  /// setup-phase trace events fire once per shared state, not once per
  /// trial, so a reused --trace run would not diff clean against a fresh
  /// one.
  bool reuse_setup = true;
  /// Borrowed on-disk setup tier (setup_store.h); attached to the sweep's
  /// SetupCache when reuse is active, so warm states survive the process
  /// and are shared across shards. Null = in-memory reuse only.
  SetupStore* setup_store = nullptr;
  /// Recycle TestBeds across trials (bed_pool.h): each worker keeps its
  /// last few beds and rewinds them in place instead of reconstructing.
  /// A recycled bed is observationally identical to a fresh one, so this
  /// only changes speed; `--no-recycle-systems` clears it for A/B runs.
  /// Disabled automatically while tracing, like reuse_setup.
  bool recycle_systems = true;
};

/// Most in-order lines the committer hands one ResultStream::commit call
/// (one flush + one watermark update per batch on the campaign path).
inline constexpr std::size_t kCommitBatch = 64;

/// How far past the committer's in-order watermark (the first trial not
/// yet retired) a worker may start a trial. A worker whose next trial is
/// that far ahead parks until the watermark moves, so the reorder buffer
/// holds fewer than this many results, and the warm states resident at
/// once are those declared by a window of about this many trials (plus
/// the setup lookahead), whatever the sweep size.
inline constexpr std::size_t kReorderWindow = 256;

/// Sweep-wide setup-reuse statistics (zeros when reuse was off). Each
/// distinct declared key is resolved exactly once per sweep, either loaded
/// from the attached SetupStore or built fresh; builds + disk_hits is the
/// number of distinct keys.
struct SetupStats {
  /// Fetches that found their key already in memory. The setup item
  /// resolves a key ahead of its trials, so this counts every trial fetch
  /// of a declared key (trials x keys per trial), not fetches saved.
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t builds = 0;
  /// Trials that rewound a pooled bed instead of constructing one, and
  /// pooled beds that had to be thrown away (failed rewind or eviction).
  std::uint64_t bed_recycles = 0;
  std::uint64_t bed_discards = 0;
};

/// Runs every trial through experiment.run. A throwing trial is recorded
/// (ok=false, error=what()) without aborting the sweep; an exception from
/// on_trial or stream->commit stops the sweep, is captured (first wins),
/// and rethrows here after the pool joins. The returned vector is in trial
/// order regardless of completion order (empty when !config.keep_records).
/// A declared setup whose resolution throws fails every trial that
/// declared it, each with that exception's text. `stats`, when non-null,
/// receives the sweep's setup-cache resolution counts.
std::vector<TrialRecord> run_trials(const Experiment& experiment,
                                    std::span<const TrialSpec> trials,
                                    const RunnerConfig& config,
                                    SetupStats* stats = nullptr);

}  // namespace meecc::runtime
