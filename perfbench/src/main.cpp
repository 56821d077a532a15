// perfbench: camad's end-to-end benchmark. One process runs one
// workload; see README.md for the workloads, metrics and layer map.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--root DIR] [--trace-out FILE] [--tiny] [--perturb-expected]
//
// stdout: progress lines, one {"perfbench": ...} meta line with the host
// fingerprint, then the result line {"correct", "attempted", "failed",
// "metrics"}. Exit 0 when a result was printed, 1 on an internal error,
// 2 on bad arguments.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "obs/report.h"
#include "util/json.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  std::unique_ptr<Activity> (*make)(Run&, Size);
  const char* primary;  ///< end-to-end metric the tracing overhead uses
  bool higher_is_better;
  bool seeded;  ///< does --seed change the inputs?
};

constexpr Workload kWorkloads[] = {
    {"sim_sweep", make_sim, "sim_cycles_per_s", true, true},
    {"mc_reach", make_mc, "mc_states_per_s", true, false},
    {"synth_pareto", make_synth, "pareto_s", false, false},
    {"serve_mix", make_serve, "serve_req_per_s", true, true},
};

/// Seconds of rounds each probe activity gets.
constexpr double kProbeSeconds = 3;

/// The reference loop runs kReferenceBurst passes before an activity's
/// first round and after each of its rounds that ends kReferenceEvery
/// seconds of its busy time or more past its last burst: under 1% of
/// the run, close in time to the rounds it scales.
constexpr std::size_t kReferenceBurst = 5;
constexpr double kReferenceEvery = 0.05;

/// Set-up repeats at this many evenly spaced points of an activity's
/// share, so its median spans the run instead of one burst of load.
constexpr std::size_t kSetupSlots = 8;

/// One activity in the schedule.
struct Slot {
  const Workload* workload = nullptr;
  std::unique_ptr<Activity> activity;
  double share = 0;            ///< seconds of rounds it is owed
  std::size_t min_rounds = 0;  ///< rounds it runs whatever the time
  double busy = 0;         ///< seconds spent in its set-ups and rounds
  std::size_t rounds = 0;
  double next_setup = 0;   ///< busy time at which it sets up again
  std::vector<double> reference;  ///< reference_rate() samples
  double reference_busy = 0;      ///< busy time at its last burst
};

void reference_burst(Slot& slot) {
  for (std::size_t i = 0; i < kReferenceBurst; ++i) {
    slot.reference.push_back(reference_rate());
  }
  slot.reference_busy = slot.busy;
}

/// Runs the workload's own activity for --seconds and each other one for
/// kProbeSeconds, interleaved: the next round always goes to the
/// activity furthest behind its share. Every activity then finishes (its
/// gates and metrics) at the reference scale of its own rounds. Returns
/// the workload's set-up durations, and leaves its scale in the Run.
std::vector<double> run_schedule(Run& run, const Workload& main) {
  std::vector<Slot> slots;
  for (const Workload& w : kWorkloads) {
    const bool own = &w == &main;
    Slot slot;
    slot.workload = &w;
    slot.activity = w.make(run, own ? run.main_size() : run.probe_size());
    slot.share = own ? run.seconds : kProbeSeconds;
    // Tiny runs cover each input once; otherwise three times at least.
    slot.min_rounds = slot.activity->inputs() * (run.tiny ? 1 : 3);
    slots.push_back(std::move(slot));
  }
  for (;;) {
    Slot* next = nullptr;
    for (Slot& slot : slots) {
      const bool owed = slot.rounds < slot.min_rounds ||
                        (!run.tiny && slot.busy < slot.share);
      if (owed && (next == nullptr ||
                   slot.busy / slot.share < next->busy / next->share)) {
        next = &slot;
      }
    }
    if (next == nullptr) break;
    if (next->reference.empty()) reference_burst(*next);
    Tracer::Scope span(run.tracer, "perfbench.round", next->workload->name);
    const double t0 = now_s();
    if (next->busy >= next->next_setup) {
      for (std::size_t i = 0; i < next->activity->setup_burst(); ++i) {
        next->activity->setup();
      }
      next->next_setup += next->share / kSetupSlots;
    }
    next->activity->round();
    next->busy += now_s() - t0;
    ++next->rounds;
    if (next->busy - next->reference_busy >= kReferenceEvery) {
      reference_burst(*next);
    }
  }
  for (Slot& slot : slots) {
    Tracer::Scope span(run.tracer, "perfbench.finish", slot.workload->name);
    run.ref_scale = trimmed_mean(slot.reference) / kReferenceRate;
    const std::string name = slot.workload->name;
    run.samples["host.reference_rate." + name] = {slot.reference, "1/cpu_s"};
    run.notes["reference_scale." + name] = std::to_string(run.ref_scale);
    slot.activity->finish();
  }
  const Slot& own = slots[static_cast<std::size_t>(&main - kWorkloads)];
  run.ref_scale = trimmed_mean(own.reference) / kReferenceRate;
  return own.activity->setup_s();
}

int usage() {
  std::cerr << "usage: perfbench --workload sim_sweep|mc_reach|synth_pareto|"
               "serve_mix --seed N --seconds S --trace 0|1\n"
               "                 [--root DIR] [--trace-out FILE] [--tiny]"
               " [--perturb-expected]\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  out = value;
  return true;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string meta_json(const Run& run, const Workload& w, bool trace) {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::ostringstream os;
  camad::JsonWriter j(os);
  j.begin_object()
      .kv("workload", w.name)
      .kv("seed", run.seed)
      .kv("seed_free", !w.seeded)
      .kv("seconds", static_cast<std::uint64_t>(run.seconds))
      .kv("trace", trace)
      .kv("tiny", run.tiny)
      .kv("threads", run.threads)
      .key("host")
      .begin_object()
      .kv("hardware_threads",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .kv("nproc", static_cast<std::int64_t>(nproc))
      .kv("cpu_model", cpu_model())
      .kv("build_type", PERFBENCH_BUILD_TYPE)
      .kv("compiler", __VERSION__)
      .end_object()
      .key("notes")
      .begin_object();
  for (const auto& [key, value] : run.notes) j.kv(key, value);
  j.end_object().end_object();
  return os.str();
}

void print_result(const Run& run, const std::map<std::string, Metric>& m) {
  std::ostringstream os;
  camad::JsonWriter j(os);
  j.begin_object()
      .kv("correct", run.failed == 0)
      .kv("attempted", run.attempted)
      .kv("failed", run.failed)
      .key("metrics")
      .begin_object();
  for (const auto& [name, metric] : m) {
    j.key(name)
        .begin_object()
        .kv("value", metric.value)
        .kv("unit", metric.unit)
        .end_object();
  }
  j.end_object().end_object();
  std::cout << os.str() << std::endl;
}

int run_main(int argc, char** argv) {
  Run run;
  std::string workload_name;
  std::string trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  bool trace = false;
  run.root = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t number = 0;
    if (arg == "--tiny") {
      run.tiny = true;
    } else if (arg == "--perturb-expected") {
      run.perturb_expected = true;
    } else if (arg == "--workload" || arg == "--root" ||
               arg == "--trace-out") {
      const char* value = next();
      if (value == nullptr) return usage();
      if (arg == "--workload") workload_name = value;
      if (arg == "--root") run.root = value;
      if (arg == "--trace-out") trace_out = value;
    } else if (arg == "--seed" || arg == "--seconds" || arg == "--trace") {
      const char* value = next();
      if (value == nullptr || !parse_u64(value, number)) return usage();
      if (arg == "--seed") {
        run.seed = number;
        have_seed = true;
      } else if (arg == "--seconds") {
        if (number < 1 || number > 600) return usage();
        run.seconds = static_cast<double>(number);
        have_seconds = true;
      } else {
        if (number > 1) return usage();
        trace = number == 1;
        have_trace = true;
      }
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }

  // One CPU for the whole run: the single-thread rounds do not migrate,
  // and serve's client, server thread and worker hand each request over
  // on one CPU, with no wake-up of an idle one in between.
  const int cpu = ::sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (::sched_setaffinity(0, sizeof(set), &set) == 0) {
      run.notes["pinned_cpu"] = std::to_string(cpu);
    }
  }

  std::cout << "perfbench: workload " << workload->name << ", seed "
            << run.seed << ", " << run.seconds << " s, trace "
            << (trace ? 1 : 0) << ", " << run.threads << " thread(s)\n";
  double overhead_pct = 0;
  std::vector<double> setups;
  if (trace) {
    // The whole schedule twice, untraced and then traced; the gap in the
    // primary metric is the tracing overhead.
    (void)run_schedule(run, *workload);
    const double untraced = run.e2e[workload->primary].value;
    run.tracer.enable(true);
    run.sim_stats = {};
    setups = run_schedule(run, *workload);
    const double traced = run.e2e[workload->primary].value;
    const double ratio =
        workload->higher_is_better ? untraced / traced : traced / untraced;
    overhead_pct = (ratio - 1) * 100;
  } else {
    setups = run_schedule(run, *workload);
  }
  run.e2e["setup_s"] = {run.ref_s(median(setups)), "s"};
  run.samples["setup_s"] = {std::move(setups), "s"};
  run.e2e["peak_rss_mb"] = {
      static_cast<double>(camad::obs::peak_rss_bytes()) / (1024.0 * 1024.0),
      "MiB"};

  for (const auto& [name, sample] : run.samples) {
    std::vector<double> v = sample.values;
    std::sort(v.begin(), v.end());
    std::cout << name << ": " << v.size() << " sample(s), min " << v.front()
              << ", median " << median(v) << ", max " << v.back() << ' '
              << sample.unit << '\n';
  }
  const std::string meta = meta_json(run, *workload, trace);
  std::cout << "{\"perfbench\":" << meta << "}\n";
  for (const std::string& failure : run.failures) {
    std::cerr << "perfbench: FAILED " << failure << '\n';
  }
  if (!trace) {
    print_result(run, run.e2e);
    return 0;
  }
  std::map<std::string, Metric> layer = run.layer;
  layer["error_rate"] = {
      static_cast<double>(run.failed) / static_cast<double>(run.attempted),
      "failed/attempted"};
  const camad::sim::SimStats& sim = run.sim_stats;
  const double lookups =
      static_cast<double>(sim.plan_cache_hits + sim.plan_cache_misses);
  layer["sim.plan_cache.hits"] = {static_cast<double>(sim.plan_cache_hits),
                                  "count"};
  layer["sim.plan_cache.misses"] = {
      static_cast<double>(sim.plan_cache_misses), "count"};
  layer["sim.plan_cache.hit_ratio"] = {
      lookups > 0 ? static_cast<double>(sim.plan_cache_hits) / lookups : 0,
      "ratio"};
  layer["sim.activity"] = {sim.activity_factor(), "ratio"};
  layer["trace.overhead_pct"] = {overhead_pct, "%"};
  layer["trace.spans"] = {static_cast<double>(run.tracer.size()), "count"};
  if (!trace_out.empty()) run.tracer.write_json(trace_out, meta);
  const auto totals = run.tracer.totals();
  for (const auto& [name, t] : totals) {
    if (name.find('/') != std::string::npos) continue;
    std::cout << "self " << name << ": " << t.count << " span(s), total "
              << t.total_s << " s, self " << t.self_s << " s\n";
  }
  print_result(run, layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << '\n';
    return 1;
  }
}
