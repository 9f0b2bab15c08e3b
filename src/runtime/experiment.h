// The experiment runtime's core vocabulary: a TrialSpec names one concrete
// simulator run (seed + string-keyed parameter overrides), a TrialResult
// carries what it measured, and an Experiment binds a name to a
// TrialSpec -> TrialResult function plus the defaults that make
// `meecc_bench run <name>` reproduce its paper figure.
//
// Every trial owns its simulator (TestBed/System are built inside run()
// from the spec alone, or forked from an immutable shared warm setup), so
// trials share no mutable state and results are bit-identical at any
// worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace meecc::runtime {

/// Ordered key=value pairs. Order matters twice: overrides apply first to
/// last (later wins), and sweep expansion iterates keys in declaration
/// order so trial numbering is deterministic.
using ParamMap = std::vector<std::pair<std::string, std::string>>;

/// Last value bound to `key`, or nullopt.
std::optional<std::string_view> find_param(const ParamMap& params,
                                           std::string_view key);

/// Sets `key` to `value`, replacing an existing binding in place.
void set_param(ParamMap& params, std::string_view key, std::string value);

/// One concrete run of one experiment.
struct TrialSpec {
  std::string experiment;
  std::size_t trial_index = 0;  ///< position in the expanded sweep
  std::uint64_t seed = 0;       ///< drives every RNG in the trial's System
  ParamMap params;              ///< defaults merged with CLI overrides
};

/// Named sample sequence attached to a result (probe traces, per-size
/// probability curves) — the Fig. 6/8 style payloads.
struct SeriesData {
  std::string name;
  std::vector<double> values;
};

struct TrialResult {
  /// Named scalar metrics in emission order (the JSONL/table columns).
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<SeriesData> series;
  /// Pre-rendered human-only output (histograms, ASCII charts, tables)
  /// printed by the driver for single-trial runs; never serialized to JSON.
  std::string artifact_text;

  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void add_series(std::string name, std::vector<double> values) {
    series.push_back({std::move(name), std::move(values)});
  }
  /// Lookup for tests and summary rendering.
  std::optional<double> find_metric(std::string_view name) const;
};

/// The warm setup states a trial shares with other trials (snapshot/fork
/// support). Each key names one state — by convention the experiment name,
/// the machine seed, and every machine/setup-affecting param (measure-phase
/// params excluded, so trials differing only there share one setup). The
/// runner resolves each distinct key once as its own work item, ahead of
/// the trials that declare it, and drops the state after the last of them
/// finishes; run() fetches the same states with memoized_setup().
struct SetupDeclaration {
  /// Keys of every warm state run(spec) fetches. An exception here means
  /// "declares nothing": the trial then runs, and fails, on its own.
  std::function<std::vector<std::string>(const TrialSpec&)> keys = nullptr;
  /// Resolves keys(spec)[slot] alone: makes the same memoized_setup() fetch
  /// run(spec) makes for that key, under the runner's TrialContext.
  std::function<void(const TrialSpec&, std::size_t slot)> resolve = nullptr;

  explicit operator bool() const { return keys && resolve; }
};

struct Experiment {
  std::string name;
  std::string description;
  std::string paper_ref;  ///< e.g. "Fig. 7, §5.4"
  /// Experiment-specific defaults (overridable via --set). Keys not in the
  /// shared config table (params.h) must appear here — sweep expansion
  /// rejects keys that are neither.
  ParamMap default_params;
  /// Default sweep axes as (key, "v1,v2,..."), reproducing the paper figure
  /// when run with no CLI sweeps. A CLI --sweep/--set on the same key
  /// replaces the default axis.
  std::vector<std::pair<std::string, std::string>> default_sweeps;
  std::function<TrialResult(const TrialSpec&)> run;
  /// Optional snapshot/fork support. When set, the runner installs a
  /// sweep-wide SetupCache reachable via runtime::TrialContext and
  /// schedules the declared setups (runner.h). Empty = no sharing.
  SetupDeclaration setups = {};
};

}  // namespace meecc::runtime
