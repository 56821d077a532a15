// Shared state of one benchmark process: arguments, the span recorder,
// the correctness tally and the metrics the activities report.
//
// Four activities exist (sim, mc, synth, serve), one per workload. The
// named workload runs its own activity at full size for --seconds; the
// other three run at probe size for a few seconds each, because every
// result line must carry every metric (see README.md).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.h"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_s();

/// CPU seconds this process has run, summed over its threads, since an
/// arbitrary origin. Every timed end-to-end metric uses this clock. On a
/// shared host wall time also counts what the neighbours take: CPU time
/// stolen by the hypervisor, and the wake-up of a vCPU that went idle.
/// The kernel leaves steal out of a thread's CPU time, and a blocking
/// wait (a join, a socket read) costs none, so this clock counts the
/// benchmark's own work, on every thread it runs.
double cpu_s();

/// One pass of the reference loop, timed in CPU time: returns passes per
/// CPU second. The loop is the benchmark's own code, not the library's:
/// four interleaved integer chains, loads and stores in a 16 KiB table and
/// a data-dependent branch, the mix of the interpreter, hash-store and
/// parser code the activities run. Its speed follows the host's
/// contention and clock the way theirs does, and no change to the
/// program can move it.
double reference_rate();

/// Reference passes per CPU second that make one reference second: about
/// the trimmed mean of reference_rate() on the 4-vCPU Xeon host the
/// benchmark was tuned on, so that reference seconds read close to CPU seconds
/// there.
inline constexpr double kReferenceRate = 5000;

/// Mean of a sample without its lowest and highest 10% (0 for an empty
/// one). Every timed end-to-end metric and the reference scale use it;
/// see README.md, "Statistics".
double trimmed_mean(std::vector<double> values);

/// Median of a sample (0 for an empty one).
double median(std::vector<double> values);

/// Nearest-rank percentile, q in [0, 1] (0 for an empty sample).
double percentile(std::vector<double> values, double q);


// ---------------------------------------------------------------- spans

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< serve request id, 0 elsewhere
  std::string name;           ///< "<layer>.<function>"
  std::string label;          ///< design / instance / op, may be empty
  double start = 0;
  double end = 0;
};

/// In-memory span recorder around the benchmark's own calls into the
/// library. Disabled, a Scope costs one branch. Parents are tracked per
/// thread; a thread started inside a span passes that span's id as the
/// explicit parent of its first scope.
class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::string_view label = {},
          std::uint64_t request = 0);
    /// Scope whose parent is `parent` (a span open on another thread).
    Scope(Tracer& tracer, std::uint64_t parent, std::string_view name,
          std::string_view label = {}, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return span_.id; }

   private:
    Tracer* tracer_ = nullptr;  ///< null when tracing is off
    Span span_;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;  ///< duration minus the part children cover
  };
  /// Totals per span name, and per "name/label" for labelled spans.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Durations of every span named `name` (and labelled `label`, if
  /// given), in recording order.
  [[nodiscard]] std::vector<double> durations(std::string_view name,
                                              std::string_view label = {})
      const;
  [[nodiscard]] std::size_t size() const;
  /// Writes every span plus the per-name totals as one JSON document.
  void write_json(const std::filesystem::path& path,
                  const std::string& meta_json) const;

 private:
  void record(Span span);

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t next_id_ = 1;  // guarded by mu_
};

// -------------------------------------------------------------- run state

/// kProbe shrinks the inputs whose full-size rounds take seconds (mc
/// state budgets, synth generations); kTiny shrinks every activity to
/// one quick round per input, for the self-test.
enum class Size { kFull, kProbe, kTiny };

struct Metric {
  double value = 0;
  std::string unit;
};

struct Run {
  std::filesystem::path root;  ///< repository checkout (designs/ lives here)
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Size of every pool (sim batch, mc, Pareto evaluation, serve
  /// workers and clients). One: the timed metrics read CPU time, and at
  /// several threads the CPU time of the same work varied 2x between
  /// rounds (contention among the pool's own threads).
  std::size_t threads = 1;
  bool tiny = false;
  /// Self-test hook: every gate compares against a deliberately wrong
  /// expected value, so each one must report a failure.
  bool perturb_expected = false;
  Tracer tracer;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for stderr
  std::map<std::string, std::uint64_t> failures_by_activity;

  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  /// Key/value facts recorded in the output's meta line (caps, counts).
  std::map<std::string, std::string> notes;

  /// The trimmed mean of the reference_rate() samples taken beside an
  /// activity's rounds, over kReferenceRate: the host's speed while they
  /// ran. The schedule sets it before each activity's finish().
  double ref_scale = 1;
  /// `cpu_seconds` in reference seconds: what they would have been on a
  /// host where the reference loop runs at kReferenceRate. Every timed
  /// end-to-end metric is reported in reference seconds.
  [[nodiscard]] double ref_s(double cpu_seconds) const {
    return cpu_seconds * ref_scale;
  }

  /// Plan-cache activity summed over every sim call the run observes.
  camad::sim::SimStats sim_stats;

  /// Per-round samples, printed as a summary line each: the samples
  /// behind each end-to-end metric, or per input where a metric combines
  /// several inputs.
  struct Samples {
    std::vector<double> values;
    std::string unit;
  };
  std::map<std::string, Samples> samples;

  /// Counts one checked operation; records a failure when !ok.
  void check(bool ok, const std::string& what);
  /// `size` of an activity run as its workload's main phase or a probe.
  [[nodiscard]] Size probe_size() const {
    return tiny ? Size::kTiny : Size::kProbe;
  }
  [[nodiscard]] Size main_size() const {
    return tiny ? Size::kTiny : Size::kFull;
  }
};

/// One measured activity. main.cpp interleaves the rounds of the
/// workload's own activity with those of the three probes, so a burst of
/// load on the host slows a few rounds of each instead of a whole phase.
class Activity {
 public:
  virtual ~Activity() = default;
  /// One set-up repetition: builds the inputs and warms the engines.
  virtual void setup() = 0;
  /// Back-to-back set-up repetitions per set-up slot; sub-millisecond
  /// set-ups repeat so that a slot is not one timer reading.
  [[nodiscard]] virtual std::size_t setup_burst() const { return 1; }
  /// Duration of every set-up repetition so far.
  [[nodiscard]] virtual const std::vector<double>& setup_s() const = 0;
  /// One measured round.
  virtual void round() = 0;
  /// Rounds before the samples cover every input once.
  [[nodiscard]] virtual std::size_t inputs() const { return 1; }
  /// Runs the gates and reports the end-to-end metrics, and the
  /// per-layer metrics when the tracer is on.
  virtual void finish() = 0;
};

std::unique_ptr<Activity> make_sim(Run& run, Size size);
std::unique_ptr<Activity> make_mc(Run& run, Size size);
std::unique_ptr<Activity> make_synth(Run& run, Size size);
std::unique_ptr<Activity> make_serve(Run& run, Size size);

}  // namespace perfbench
