// meecc_perfbench: the timing half of the end-to-end benchmark (run.py is
// the front door; see README.md).
//
//   meecc_perfbench setup   --workload W --seed S --work DIR
//   meecc_perfbench measure --workload W --seed S --seconds T --work DIR
//                           [--trace 0|1] [--verify]
//
// `setup` does what must happen before a workload can run — process start,
// experiment registry, trial expansion, and for campaign_stored the setup
// store fill — and exits; run.py times it. `measure` runs whole passes of
// the workload until T seconds have elapsed and prints one JSON object (the
// last stdout line) with every pass's wall and CPU time, peak RSS, the
// committed JSONL digest and the failure count. With --trace 1 it instead
// alternates untraced and traced passes, then (for the campaigns) runs the
// single-threaded replay in replay.h, and prints the per-layer metrics of
// the last traced pass.
// --verify adds the once-per-checkout checks: the digest at the reference
// seed and, for campaign, jobs=1 byte identity.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/proc_rss.h"
#include "obs/counters.h"
#include "replay.h"
#include "runtime/campaign.h"
#include "runtime/experiments.h"
#include "runtime/params.h"
#include "runtime/registry.h"
#include "runtime/runner.h"
#include "runtime/setup_store.h"
#include "runtime/sink.h"
#include "runtime/sweep.h"

namespace {

using namespace meecc;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// The default-shaped campaign: the `mitigations` default grid
/// (mee.cache.indexing = modulo,keyed) over this many seeds.
constexpr int kCampaignSeeds = 24;
/// Campaign workers: with the committer thread this fills a 4-core host.
constexpr unsigned kCampaignJobs = 3;
/// Untraced/traced pass pairs a --trace 1 run makes.
constexpr int kOverheadPairs = 3;
/// The seed the digests in reference.json were recorded at.
constexpr std::uint64_t kReferenceSeed = 42;

double ms_since(Clock::time_point origin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

double cpu_ms(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string_view> split_lines(std::string_view bytes) {
  std::vector<std::string_view> lines;
  while (!bytes.empty()) {
    const auto nl = bytes.find('\n');
    lines.push_back(bytes.substr(0, nl));
    bytes.remove_prefix(nl == std::string_view::npos ? bytes.size() : nl + 1);
  }
  return lines;
}

/// Lines of `bytes` that differ from the same line of `reference` (missing
/// or extra lines count too).
std::size_t differing_lines(std::string_view bytes,
                            std::string_view reference) {
  const auto a = split_lines(bytes);
  const auto b = split_lines(reference);
  std::size_t diff = a.size() > b.size() ? a.size() - b.size()
                                         : b.size() - a.size();
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    if (a[i] != b[i]) ++diff;
  return diff;
}

std::string hex_digest(std::string_view bytes) {
  char out[17];
  std::snprintf(out, sizeof out, "%016" PRIx64, io::fnv1a64(bytes));
  return out;
}

/// One trial's host-time span, relative to the pass start: steady-clock
/// start/end and the CPU time its thread spent inside it.
struct TrialSpan {
  double start_ms = 0.0;
  double end_ms = 0.0;
  double cpu_ms = 0.0;
};

/// Wraps Experiment::run with a span per trial. Spans are indexed by the
/// trial's position in the pass (`offset` + trial_index), each written by
/// the one worker that ran the trial and read after run_trials joins.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  runtime::Experiment wrap(const runtime::Experiment& experiment,
                           std::size_t offset, std::size_t trials) {
    spans_.resize(std::max(spans_.size(), offset + trials));
    runtime::Experiment wrapped = experiment;
    wrapped.run = [this, run = experiment.run,
                   offset](const runtime::TrialSpec& spec) {
      TrialSpan& span = spans_[offset + spec.trial_index];
      const double cpu0 = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
      span.start_ms = ms_since(origin_);
      const auto finish = [&] {
        span.end_ms = ms_since(origin_);
        span.cpu_ms = cpu_ms(CLOCK_THREAD_CPUTIME_ID) - cpu0;
      };
      try {
        runtime::TrialResult result = run(spec);
        finish();
        return result;
      } catch (...) {
        finish();
        throw;
      }
    };
    return wrapped;
  }

  const std::vector<TrialSpan>& spans() const { return spans_; }
  Clock::time_point origin() const { return origin_; }

 private:
  Clock::time_point origin_;
  std::vector<TrialSpan> spans_;
};

/// JsonlResultStream with the commit time of every trial recorded.
class TimedStream final : public runtime::ResultStream {
 public:
  TimedStream(std::ostream& out, Clock::time_point origin, std::size_t trials)
      : inner_(out), origin_(origin), committed_ms_(trials, 0.0) {}

  void commit(std::size_t first, const std::string* lines,
              std::size_t count) override {
    const double start = ms_since(origin_);
    inner_.commit(first, lines, count);
    const double end = ms_since(origin_);
    busy_ms_ += end - start;
    for (std::size_t i = first; i < first + count; ++i) committed_ms_[i] = end;
  }

  double busy_ms() const { return busy_ms_; }
  const std::vector<double>& committed_ms() const { return committed_ms_; }

 private:
  runtime::JsonlResultStream inner_;
  Clock::time_point origin_;
  std::vector<double> committed_ms_;
  double busy_ms_ = 0.0;
};

/// What one pass of a workload produced.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t trials = 0;
  std::size_t failed = 0;  ///< ok=false trials, or every trial of an invalid pass
  std::string jsonl;       ///< the committed JSONL bytes
  runtime::SetupStats stats;
  // Traced passes only.
  std::optional<Tracer> tracer;
  std::vector<std::string> trial_experiment;  ///< per trial
  std::vector<obs::CounterSnapshot> trial_counters;
  double commit_ms = 0.0;
  std::vector<double> committed_ms;  ///< per trial, relative to pass start
};

struct Workload {
  std::string name;
  std::uint64_t seed = kReferenceSeed;
  fs::path work;
};

std::vector<runtime::TrialSpec> campaign_trials(std::uint64_t seed) {
  runtime::SweepSpec sweep;
  sweep.seeds = kCampaignSeeds;
  sweep.base_seed = seed;
  return runtime::expand_sweep(runtime::get_experiment("mitigations"), sweep);
}

/// Runs `body` as one timed pass.
template <typename Body>
Pass timed_pass(bool traced, Body&& body) {
  Pass pass;
  const double cpu0 = cpu_ms(CLOCK_PROCESS_CPUTIME_ID);
  const auto start = Clock::now();
  if (traced) pass.tracer.emplace(start);
  body(pass);
  pass.wall_s = ms_since(start) / 1e3;
  pass.cpu_s = (cpu_ms(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e3;
  return pass;
}

/// The registered experiments in a seeded order (Fisher-Yates over a
/// splitmix64 stream, so the order is the same on every platform).
std::vector<const runtime::Experiment*> figure_order(std::uint64_t seed) {
  std::vector<const runtime::Experiment*> order = runtime::all_experiments();
  std::uint64_t state = seed;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[next() % i]);
  return order;
}

/// Every registered experiment at its defaults — the default seed too, as
/// the paper figures are defined — one after another, jobs=1, records kept
/// and written out as `meecc_bench run <name> --json` does. --seed only
/// orders the experiments, so every pass does the same simulated work and
/// its JSONL (taken in experiment-name order) has one reference digest.
Pass figures_pass(const Workload& w, bool traced) {
  const fs::path out_path = w.work / "figures.jsonl";
  std::map<std::string, std::string> jsonl_by_name;
  Pass pass = timed_pass(traced, [&](Pass& p) {
    std::ofstream out(out_path, std::ios::binary);
    for (const runtime::Experiment* experiment : figure_order(w.seed)) {
      const auto trials =
          runtime::expand_sweep(*experiment, runtime::SweepSpec{});
      const std::size_t offset = p.trials;
      runtime::RunnerConfig config;
      config.jobs = 1;
      runtime::SetupStats stats;
      std::vector<runtime::TrialRecord> records;
      if (p.tracer) {
        records = runtime::run_trials(
            p.tracer->wrap(*experiment, offset, trials.size()), trials, config,
            &stats);
      } else {
        records = runtime::run_trials(*experiment, trials, config, &stats);
      }
      const double commit_start = p.tracer ? ms_since(p.tracer->origin()) : 0.0;
      std::ostringstream lines;
      runtime::write_jsonl(lines, records);
      std::string& bytes = jsonl_by_name[experiment->name];
      bytes = lines.str();
      out << bytes;
      out.flush();
      if (p.tracer) {
        const double commit_end = ms_since(p.tracer->origin());
        p.commit_ms += commit_end - commit_start;
        p.committed_ms.resize(offset + records.size(), commit_end);
      }
      p.trials += trials.size();
      p.stats.builds += stats.builds;
      p.stats.memory_hits += stats.memory_hits;
      p.stats.disk_hits += stats.disk_hits;
      p.stats.bed_recycles += stats.bed_recycles;
      p.stats.bed_discards += stats.bed_discards;
      for (const auto& record : records) {
        if (!record.ok) ++p.failed;
        if (p.tracer) {
          p.trial_experiment.push_back(experiment->name);
          p.trial_counters.push_back(record.counters);
        }
      }
    }
    if (!out) throw std::runtime_error("write to " + out_path.string() + " failed");
  });
  for (const auto& [name, bytes] : jsonl_by_name) pass.jsonl += bytes;
  return pass;
}

/// The default-shaped campaign: streamed JSONL, setup reuse and bed
/// recycling on, as `meecc_bench run mitigations --seeds N --jobs J
/// --streaming --json FILE` runs it.
Pass campaign_pass(const Workload& w, std::uint64_t seed, unsigned jobs,
                   bool traced) {
  const runtime::Experiment& experiment = runtime::get_experiment("mitigations");
  const auto trials = campaign_trials(seed);
  const fs::path out_path = w.work / "campaign.jsonl";
  Pass pass = timed_pass(traced, [&](Pass& p) {
    std::ofstream out(out_path, std::ios::binary);
    TimedStream stream(out, p.tracer ? p.tracer->origin() : Clock::now(),
                       trials.size());
    runtime::JsonlResultStream plain(out);
    if (p.tracer) p.trial_counters.resize(trials.size());
    runtime::RunnerConfig config;
    config.jobs = jobs;
    config.keep_records = false;
    config.stream = p.tracer ? static_cast<runtime::ResultStream*>(&stream)
                             : &plain;
    config.on_trial = [&p](const runtime::TrialRecord& record) {
      if (!record.ok) ++p.failed;
      if (p.tracer)
        p.trial_counters[record.spec.trial_index] = record.counters;
    };
    if (p.tracer) {
      runtime::run_trials(p.tracer->wrap(experiment, 0, trials.size()), trials,
                          config, &p.stats);
      p.commit_ms = stream.busy_ms();
      p.committed_ms = stream.committed_ms();
    } else {
      runtime::run_trials(experiment, trials, config, &p.stats);
    }
    out.flush();
    if (!out) throw std::runtime_error("write to " + out_path.string() + " failed");
    p.trials = trials.size();
  });
  pass.jsonl = read_file(out_path);
  return pass;
}

runtime::SetupStore open_store(const fs::path& dir) {
  return runtime::SetupStore(dir.string(),
                             runtime::setup_store_config_hash("mitigations"));
}

/// Fills a fresh setup store: the campaign run once with the store
/// attached, so every distinct setup is built and written back.
void fill_store(std::uint64_t seed, const fs::path& store_dir,
                const fs::path& jsonl_path) {
  fs::remove_all(store_dir);
  const runtime::Experiment& experiment = runtime::get_experiment("mitigations");
  const auto trials = campaign_trials(seed);
  runtime::SetupStore store = open_store(store_dir);
  std::ofstream out(jsonl_path, std::ios::binary);
  runtime::JsonlResultStream stream(out);
  runtime::RunnerConfig config;
  config.jobs = kCampaignJobs;
  config.keep_records = false;
  config.stream = &stream;
  config.setup_store = &store;
  std::size_t failed = 0;
  config.on_trial = [&failed](const runtime::TrialRecord& record) {
    if (!record.ok) ++failed;
  };
  runtime::SetupStats stats;
  runtime::run_trials(experiment, trials, config, &stats);
  out.flush();
  const std::size_t distinct = perfbench::distinct_setup_keys(trials);
  if (!out || failed != 0 || stats.builds != distinct)
    throw std::runtime_error("setup store fill failed: " +
                             std::to_string(failed) + " failed trials, " +
                             std::to_string(stats.builds) + " builds for " +
                             std::to_string(distinct) + " distinct setups");
}

/// The same grid as a one-shard campaign against a filled store. Every warm
/// setup must be a disk hit; a pass that builds one is invalid and counts
/// every trial as failed.
Pass stored_pass(const Workload& w, std::uint64_t seed,
                 const fs::path& store_dir, bool traced) {
  const runtime::Experiment& experiment = runtime::get_experiment("mitigations");
  const auto trials = campaign_trials(seed);
  const fs::path shard_dir = w.work / "shards";
  fs::remove_all(shard_dir);
  fs::create_directories(shard_dir);
  runtime::SetupStore store = open_store(store_dir);
  runtime::CampaignShardResult result;
  Pass pass = timed_pass(traced, [&](Pass& p) {
    runtime::CampaignShardOptions options;
    options.directory = shard_dir.string();
    options.streaming = true;
    options.runner.jobs = kCampaignJobs;
    options.runner.setup_store = &store;
    if (p.tracer) {
      p.trial_counters.resize(trials.size());
      options.runner.on_trial = [&p](const runtime::TrialRecord& record) {
        p.trial_counters[record.spec.trial_index] = record.counters;
      };
      result = runtime::run_campaign_shard(
          p.tracer->wrap(experiment, 0, trials.size()), trials, options);
    } else {
      result = runtime::run_campaign_shard(experiment, trials, options);
    }
    p.trials = trials.size();
  });
  pass.stats = result.setup_stats;
  pass.failed = result.failures;
  const std::size_t distinct = perfbench::distinct_setup_keys(trials);
  if (!result.manifest.complete() || pass.stats.builds != 0 ||
      pass.stats.disk_hits != distinct) {
    std::fprintf(stderr,
                 "campaign_stored: invalid pass (%" PRIu64 " builds, %" PRIu64
                 " disk hits for %zu distinct setups)\n",
                 pass.stats.builds, pass.stats.disk_hits, distinct);
    pass.failed = pass.trials;
  }
  if (pass.tracer) {
    // Shard commits happen inside the campaign; what shows from outside is
    // how long the run outlasts its last trial.
    double last_end = 0.0;
    for (const auto& span : pass.tracer->spans())
      last_end = std::max(last_end, span.end_ms);
    pass.commit_ms = pass.wall_s * 1e3 - last_end;
    for (const auto& span : pass.tracer->spans())
      pass.committed_ms.push_back(span.end_ms + pass.commit_ms);
  }
  pass.jsonl = read_file(runtime::shard_jsonl_path(shard_dir.string(), {}));
  return pass;
}

Pass run_pass(const Workload& w, bool traced) {
  if (w.name == "figures") return figures_pass(w, traced);
  if (w.name == "campaign")
    return campaign_pass(w, w.seed, kCampaignJobs, traced);
  return stored_pass(w, w.seed, w.work / "store", traced);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

/// Named per-layer metrics, in BENCHMARK.json's per_layer order (the
/// `figures` workload adds one `figures.<experiment>_s` per experiment).
using LayerMetrics = std::vector<std::pair<std::string, double>>;

/// A per-layer metric's unit, read off its name.
std::string_view unit_of(std::string_view name) {
  if (name.find("_ms") != std::string_view::npos) return "ms";
  if (name.find(".ns_per_") != std::string_view::npos) return "ns";
  if (name.ends_with("_s")) return "s";
  if (name.ends_with("_frac") || name.ends_with("_ratio")) return "ratio";
  return "count";
}

/// Per-layer metrics of one traced pass (plus the replay for campaigns).
/// Counter totals are executed work: summed JSONL counters for figures
/// (no setup is shared there), replay phase deltas for the campaigns.
LayerMetrics layer_metrics(const Workload& w, const Pass& traced,
                           double trace_overhead,
                           const perfbench::ReplayResult* replay,
                           std::size_t* failed) {
  LayerMetrics m;
  const auto set = [&m](std::string name, double value) {
    m.emplace_back(std::move(name), value);
  };
  const auto& spans = traced.tracer->spans();
  const unsigned jobs = w.name == "figures" ? 1 : kCampaignJobs;
  std::vector<double> trial_ms, lag_ms;
  double span_sum = 0.0, wait_sum = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double len = spans[i].end_ms - spans[i].start_ms;
    trial_ms.push_back(len);
    span_sum += len;
    wait_sum += std::max(0.0, len - spans[i].cpu_ms);
    lag_ms.push_back(std::max(0.0, traced.committed_ms[i] - spans[i].end_ms));
  }
  const double wall_ms = traced.wall_s * 1e3;
  set("runtime.trial_ms.p50", quantile(trial_ms, 0.5));
  set("runtime.trial_ms.p90", quantile(trial_ms, 0.9));
  set("runtime.worker_busy_frac", span_sum / (jobs * wall_ms));
  set("runtime.setup_wait_ms", wait_sum);
  set("runtime.commit_ms", traced.commit_ms);
  set("runtime.commit_lag_ms.p90", quantile(lag_ms, 0.9));
  set("runtime.setup.builds", static_cast<double>(traced.stats.builds));
  set("runtime.setup.memory_hits",
        static_cast<double>(traced.stats.memory_hits));
  set("runtime.setup.disk_hits", static_cast<double>(traced.stats.disk_hits));
  set("runtime.bed.recycles", static_cast<double>(traced.stats.bed_recycles));
  set("runtime.bed.discards", static_cast<double>(traced.stats.bed_discards));

  static const char* const kPhases[] = {"setup_build", "setup_load", "bed_fork",
                                        "bed_reset",   "bed_build",  "bed_park",
                                        "transfer",    "legit"};
  obs::CounterSnapshot work;
  double sim_ms = 0.0, replay_ms = 0.0;
  for (const char* phase : kPhases) {
    double ms = 0.0;
    if (replay != nullptr) {
      const auto it = replay->phases.find(phase);
      if (it != replay->phases.end()) {
        ms = it->second.ms;
        obs::merge_into(work, it->second.work);
        if (!it->second.work.empty()) sim_ms += ms;
      }
    }
    replay_ms += ms;
    set(std::string("channel.") + phase + "_ms", ms);
  }

  if (replay == nullptr) {
    std::map<std::string, double> experiment_ms;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      experiment_ms[traced.trial_experiment[i]] +=
          spans[i].end_ms - spans[i].start_ms;
      obs::merge_into(work, traced.trial_counters[i]);
    }
    sim_ms = span_sum;
    for (const auto& [name, ms] : experiment_ms)
      set("figures." + name + "_s", ms / 1e3);
  }

  const auto count = [&work](std::string_view name) {
    return static_cast<double>(obs::snapshot_value(work, name));
  };
  const double events = count("des.dispatched");
  const double walks = count("mee.read_walks") + count("mee.write_walks");
  const double v_hits = count("mee.cache.versions_class.hits");
  const double v_total = v_hits + count("mee.cache.versions_class.misses");
  set("sim.events", events);
  set("sim.ns_per_event", events > 0 ? sim_ms * 1e6 / events : 0.0);
  set("mee.walks", walks);
  set("mee.ns_per_walk", walks > 0 ? sim_ms * 1e6 / walks : 0.0);
  set("mee.cache.versions_hit_ratio", v_total > 0 ? v_hits / v_total : 0.0);
  for (const char* name :
       {"mee.nodes_fetched", "cache.clflushes", "cache.llc.misses",
        "mee.cache.rekeys", "dram.reads", "crypto.pad.hit", "crypto.pad.miss",
        "mee.mac.node_verifies", "mee.mac.tag_verifies"})
    set(name, count(name));

  set("obs.trace_overhead_frac", trace_overhead);
  // Share of the measured whole that the parts leave unexplained. Figures:
  // per-experiment spans against the pass wall time. Campaigns: replayed
  // phases plus off-CPU (setup wait) time against the summed trial spans.
  set("bench.unexplained_frac",
        replay == nullptr ? (wall_ms - span_sum) / wall_ms
                          : (span_sum - replay_ms - wait_sum) / span_sum);

  if (replay != nullptr) {
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < traced.trial_counters.size(); ++i)
      if (i >= replay->trial_counters.size() ||
          replay->trial_counters[i] != traced.trial_counters[i])
        ++mismatched;
    if (mismatched != 0)
      std::fprintf(stderr, "%s: replay counters differ on %zu trial(s)\n",
                   w.name.c_str(), mismatched);
    // The runner resolves each distinct setup exactly once, by build or load.
    if (replay->distinct_setups != traced.stats.builds + traced.stats.disk_hits) {
      std::fprintf(stderr, "%s: replay resolved %zu setups, runner %" PRIu64 "\n",
                   w.name.c_str(), replay->distinct_setups,
                   traced.stats.builds + traced.stats.disk_hits);
      ++mismatched;
    }
    *failed += mismatched;
  }
  return m;
}

struct Args {
  std::string command;
  Workload workload;
  double seconds = 10.0;
  bool trace = false;
  bool verify = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) throw std::invalid_argument("missing command");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload.name = value();
    } else if (flag == "--seed") {
      args.workload.seed = runtime::parse_u64("--seed", value());
    } else if (flag == "--seconds") {
      args.seconds = runtime::parse_double("--seconds", value());
    } else if (flag == "--work") {
      args.workload.work = value();
    } else if (flag == "--trace") {
      args.trace = runtime::parse_bool("--trace", value());
    } else if (flag == "--verify") {
      args.verify = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const std::string& name = args.workload.name;
  if (name != "figures" && name != "campaign" && name != "campaign_stored")
    throw std::invalid_argument("unknown workload '" + name + "'");
  if (args.workload.work.empty()) throw std::invalid_argument("--work is required");
  return args;
}

int cmd_setup(const Args& args) {
  const Workload& w = args.workload;
  fs::create_directories(w.work);
  if (w.name == "figures") {
    std::size_t trials = 0;
    for (const runtime::Experiment* experiment : figure_order(w.seed))
      trials += runtime::expand_sweep(*experiment, runtime::SweepSpec{}).size();
    std::printf("{\"trials\":%zu}\n", trials);
  } else if (w.name == "campaign") {
    std::printf("{\"trials\":%zu}\n", campaign_trials(w.seed).size());
  } else {
    fill_store(w.seed, w.work / "store", w.work / "fill.jsonl");
    std::printf("{\"trials\":%zu}\n", campaign_trials(w.seed).size());
  }
  return 0;
}

int cmd_measure(const Args& args) {
  const Workload& w = args.workload;
  fs::create_directories(w.work);
  std::string json;
  runtime::JsonWriter out(json);
  // Starts a member or element: a comma unless it is the first one.
  const auto next = [&json, &out] {
    if (json.back() != '{' && json.back() != '[') out.raw(',');
  };
  const auto field = [&](std::string_view name) {
    next();
    out.key(name);
  };
  out.raw('{');
  std::size_t attempted = 0, failed = 0;
  // The reference bytes every pass must reproduce: the store fill's stream
  // for campaign_stored (disk-loaded setups must match built ones), else
  // the first pass.
  std::optional<std::string> reference;
  if (w.name == "campaign_stored") reference = read_file(w.work / "fill.jsonl");
  const auto check = [&](const Pass& pass) {
    attempted += pass.trials;
    std::size_t bad = pass.failed;
    if (!reference) reference = pass.jsonl;
    bad = std::max(bad, differing_lines(pass.jsonl, *reference));
    failed += std::min(bad, pass.trials);
  };

  std::string digest;
  if (!args.trace) {
    field("passes");
    out.raw('[');
    const auto start = Clock::now();
    do {
      Pass pass = run_pass(w, false);
      check(pass);
      if (digest.empty()) digest = hex_digest(pass.jsonl);
      next();
      out.raw('{');
      field("wall_s");
      out.number(pass.wall_s);
      field("cpu_s");
      out.number(pass.cpu_s);
      field("trials");
      out.number(static_cast<std::uint64_t>(pass.trials));
      out.raw('}');
    } while (ms_since(start) < args.seconds * 1e3);
    out.raw(']');
  } else {
    // Alternate untraced and traced passes so the tracing overhead is a
    // ratio of medians taken over the same stretch of host time.
    std::vector<double> untraced_s, traced_s;
    std::optional<Pass> traced;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      const Pass untraced = run_pass(w, false);
      check(untraced);
      if (digest.empty()) digest = hex_digest(untraced.jsonl);
      untraced_s.push_back(untraced.wall_s);
      traced.emplace(run_pass(w, true));
      check(*traced);
      traced_s.push_back(traced->wall_s);
    }
    const double overhead =
        quantile(traced_s, 0.5) / quantile(untraced_s, 0.5) - 1.0;
    std::optional<perfbench::ReplayResult> replay;
    if (w.name != "figures") {
      std::optional<runtime::SetupStore> store;
      if (w.name == "campaign_stored") store.emplace(open_store(w.work / "store"));
      replay = perfbench::replay_mitigations(campaign_trials(w.seed),
                                             store ? &*store : nullptr);
    }
    const LayerMetrics m = layer_metrics(
        w, *traced, overhead, replay ? &*replay : nullptr, &failed);
    field("per_layer");
    out.raw('{');
    for (const auto& [name, value] : m) {
      field(name);
      out.raw('{');
      field("value");
      out.number(value);
      field("unit");
      out.string(unit_of(name));
      out.raw('}');
    }
    out.raw('}');
  }
  field("peak_rss_mb");
  out.number(peak_rss_mb());
  // Figures always run at the default seed; the campaigns at --seed.
  const bool at_reference = w.name == "figures" || w.seed == kReferenceSeed;
  field("digest");
  out.string(digest);
  field("digest_at_reference_seed");
  out.boolean(at_reference);

  if (args.verify) {
    field("verify");
    out.raw('{');
    if (w.name == "campaign") {
      // Byte identity at jobs=1 against the jobs=3 bytes of this seed.
      const Pass serial = campaign_pass(w, w.seed, 1, false);
      check(serial);
      field("jobs1_identical");
      out.boolean(serial.jsonl == *reference);
    }
    if (!at_reference) {
      Workload ref = w;
      ref.seed = kReferenceSeed;
      ref.work = w.work / "reference";
      fs::create_directories(ref.work);
      std::optional<std::string> saved = reference;
      reference.reset();
      if (w.name == "campaign_stored") {
        fill_store(ref.seed, ref.work / "store", ref.work / "fill.jsonl");
        reference = read_file(ref.work / "fill.jsonl");
      }
      const Pass pass = run_pass(ref, false);
      check(pass);
      field("reference_digest");
      out.string(hex_digest(pass.jsonl));
      field("reference_trials");
      out.number(static_cast<std::uint64_t>(pass.trials));
      reference = saved;
    }
    out.raw('}');
  }
  field("attempted");
  out.number(static_cast<std::uint64_t>(attempted));
  field("failed");
  out.number(static_cast<std::uint64_t>(failed));
  out.raw('}');
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    runtime::register_builtin_experiments();
    const Args args = parse_args(argc, argv);
    if (args.command == "setup") return cmd_setup(args);
    if (args.command == "measure") return cmd_measure(args);
    throw std::invalid_argument("unknown command '" + args.command + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "meecc_perfbench: %s\n", e.what());
    return 1;
  }
}
