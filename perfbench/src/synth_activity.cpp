// synth: cold Pareto searches on fir8, traffic and ewf on one thread
// with frontier verification on, then the gate's per-point
// re-checks (schedule, measurement, hash, differential equivalence).

#include "bench.h"
#include "semantics/equivalence.h"
#include "synth/compile.h"
#include "synth/design_hash.h"
#include "synth/designs.h"
#include "synth/library.h"
#include "synth/optimizer.h"
#include "synth/parser.h"

namespace perfbench {

namespace {

struct Design {
  std::string name;
  std::string_view source;
  camad::dcf::System serial;
  std::vector<double> pareto_s;  ///< CPU time of each search
  std::string frontier_json;     ///< the first search's frontier
  camad::synth::ParetoResult first;
};

/// Generation caps: ewf alone runs ~7 CPU s per search at 3 generations
/// on one thread (the library default is 64), so it is capped at one to
/// keep several searches of every design inside one run. Probe and tiny
/// sizes cap every design.
std::size_t generations_for(const std::string& design, Size size) {
  if (size != Size::kFull || design == "ewf") return 1;
  return camad::synth::ParetoOptions{}.generations;
}

std::vector<Design> designs() {
  std::vector<Design> set(3);
  set[0].name = "fir8";
  set[0].source = camad::synth::fir_source();
  set[1].name = "traffic";
  set[1].source = camad::synth::traffic_source();
  set[2].name = "ewf";
  set[2].source = camad::synth::ewf_source();
  return set;
}

/// Designs the timed rounds search, the first of designs(). Probes leave
/// ewf out: its one-generation search takes ~0.5 CPU s, and a probe needs
/// many short searches. A traced probe searches ewf once when it
/// finishes, for the per-layer metrics.
std::size_t timed_designs(Size size) { return size == Size::kProbe ? 2 : 3; }

/// Re-derives every frontier point from its master and checks it against
/// what the search reported, then checks it equivalent to the seed.
void gate(Run& run, const Design& d, const camad::synth::ParetoResult& r,
          const camad::synth::ModuleLibrary& lib) {
  const camad::synth::ParetoOptions options;  // what the search used
  run.check(!r.frontier.empty() && r.verified_points == r.frontier.size(),
            "synth " + d.name + ": frontier missing or not fully verified");
  for (const camad::synth::FrontierPoint& point : r.frontier) {
    const std::string what = "synth " + d.name + " point " +
                             std::to_string(point.design_hash) + ": ";
    camad::dcf::System scheduled;
    {
      Tracer::Scope span(run.tracer, "transform.derive_schedule", d.name);
      scheduled = camad::synth::derive_schedule(point.master);
    }
    camad::synth::Metrics metrics;
    {
      Tracer::Scope span(run.tracer, "synth.evaluate", d.name);
      metrics = camad::synth::evaluate(scheduled, lib, options.measure);
    }
    std::uint64_t hash = 0;
    {
      Tracer::Scope span(run.tracer, "synth.design_hash", d.name);
      hash = camad::synth::design_hash(point.master);
    }
    const double want_area =
        point.metrics.area + (run.perturb_expected ? 1 : 0);
    run.check(hash == point.design_hash && metrics.area == want_area &&
                  metrics.time_ns == point.metrics.time_ns,
              what + "re-derived schedule measures differently");
    camad::semantics::EquivalenceVerdict verdict;
    {
      Tracer::Scope span(run.tracer, "semantics.differential_equivalence",
                         d.name);
      verdict = camad::semantics::differential_equivalence(
          d.serial, point.scheduled, options.verify);
    }
    run.check(verdict.holds,
              what + "not equivalent to the seed: " + verdict.why);
  }
}

class SynthActivity : public Activity {
 public:
  SynthActivity(Run& run, Size size)
      : run_(run),
        size_(size),
        set_(designs()),
        timed_(timed_designs(size)),
        lib_(camad::synth::ModuleLibrary::standard()) {}

  /// Parses and compiles the three designs.
  void setup() override {
    const double t0 = cpu_s();
    for (Design& d : set_) {
      Tracer::Scope span(run_.tracer, "synth.compile", d.name);
      d.serial = camad::synth::compile(camad::synth::parse_program(d.source));
    }
    setups_.push_back(cpu_s() - t0);
  }
  [[nodiscard]] const std::vector<double>& setup_s() const override {
    return setups_;
  }
  [[nodiscard]] std::size_t setup_burst() const override { return 5; }
  [[nodiscard]] std::size_t inputs() const override { return timed_; }

  /// One cold search of the next design in turn.
  void round() override { search(set_[rounds_++ % timed_]); }

  /// pareto_s is the sum over the timed designs of each one's mean
  /// search CPU time.
  void finish() override {
    double seconds = 0, hypervolume = 0;
    for (std::size_t i = 0; i < timed_; ++i) {
      const Design& d = set_[i];
      seconds += trimmed_mean(d.pareto_s);
      hypervolume += d.first.hypervolume / static_cast<double>(timed_);
      run_.samples["synth.pareto_s." + d.name] = {d.pareto_s, "cpu_s"};
    }
    run_.e2e["pareto_s"] = {run_.ref_s(seconds), "ref_s"};
    run_.e2e["pareto_hypervolume"] = {hypervolume, "hypervolume"};
    if (run_.tracer.enabled()) {
      for (Design& d : set_) {
        if (d.pareto_s.empty()) search(d);
      }
      report_layers();
    }
    for (const Design& d : set_) {
      if (d.pareto_s.empty()) continue;
      run_.notes[std::string(size_ == Size::kProbe ? "probe." : "") +
                 "synth.generations_cap." + d.name] =
          std::to_string(generations_for(d.name, size_));
    }
  }

 private:
  /// The per-layer metrics, over every design searched.
  void report_layers() {
    double seconds = 0;
    std::size_t candidates = 0, dedup = 0, generations = 0, bytes = 0;
    std::uint64_t compiles = 0;
    camad::semantics::AnalysisCacheStats analysis;
    for (const Design& d : set_) {
      const camad::synth::ParetoResult& r = d.first;
      seconds += trimmed_mean(d.pareto_s);
      candidates += r.candidates_evaluated;
      dedup += r.dedup_hits;
      generations += r.generations_run;
      bytes += r.frontier_bytes;
      compiles += r.sim_stats.plan_cache_misses;
      analysis += r.analysis_stats;
    }
    const auto totals = run_.tracer.totals();
    auto mean = [&](const std::string& key) {
      const auto it = totals.find(key);
      return it == totals.end()
                 ? 0.0
                 : it->second.total_s / static_cast<double>(it->second.count);
    };
    double compile_s = 0;
    for (const Design& d : set_) {
      compile_s += totals.at("synth.compile/" + d.name).total_s;
      run_.layer["synth.pareto_s." + d.name] = {median(d.pareto_s), "cpu_s"};
    }
    // Set-up spans cover every repetition; report one set-up's share.
    run_.layer["synth.compile_s"] = {
        compile_s / static_cast<double>(setups_.size()), "s"};
    run_.layer["synth.candidates"] = {static_cast<double>(candidates),
                                      "count"};
    run_.layer["synth.generations"] = {static_cast<double>(generations),
                                       "count"};
    run_.layer["synth.candidates_per_s"] = {
        static_cast<double>(candidates) / seconds, "1/cpu_s"};
    run_.layer["synth.dedup_ratio"] = {
        static_cast<double>(dedup) / static_cast<double>(candidates + dedup),
        "ratio"};
    run_.layer["synth.frontier_bytes"] = {static_cast<double>(bytes), "B"};
    run_.layer["synth.evaluate_s"] = {mean("synth.evaluate"), "s"};
    run_.layer["synth.design_hash_s"] = {mean("synth.design_hash"), "s"};
    run_.layer["transform.derive_schedule_s"] = {
        mean("transform.derive_schedule"), "s"};
    run_.layer["semantics.equivalence_s"] = {
        mean("semantics.differential_equivalence"), "s"};
    run_.layer["semantics.analysis.hit_ratio"] = {analysis.hit_rate(),
                                                  "ratio"};
    run_.layer["semantics.analysis.hits"] = {
        static_cast<double>(analysis.total_hits()), "count"};
    run_.layer["semantics.analysis.misses"] = {
        static_cast<double>(analysis.total_misses()), "count"};
    run_.layer["sim.plan_compiles_per_candidate"] = {
        static_cast<double>(compiles) / static_cast<double>(candidates),
        "count"};
  }

  /// One cold search of `d`; the first is gated, later ones must
  /// reproduce its frontier.
  void search(Design& d) {
    camad::synth::ParetoOptions options;
    options.eval_threads = run_.threads;
    options.generations = generations_for(d.name, size_);
    const double t0 = cpu_s();
    camad::synth::ParetoResult r;
    {
      Tracer::Scope span(run_.tracer, "synth.optimize_pareto", d.name);
      r = camad::synth::optimize_pareto(d.serial, lib_, options);
    }
    d.pareto_s.push_back(cpu_s() - t0);
    std::string json = camad::synth::frontier_to_json(r, d.name);
    if (d.pareto_s.size() == 1) {
      gate(run_, d, r, lib_);
      d.frontier_json = std::move(json);
      d.first = std::move(r);
      run_.sim_stats += d.first.sim_stats;
    } else {
      // Every later search must reproduce the first frontier exactly.
      run_.check(json == d.frontier_json,
                 "synth " + d.name + ": frontier differs between searches");
    }
  }

  Run& run_;
  Size size_;
  std::vector<Design> set_;
  std::size_t timed_;  ///< rounds search set_[0, timed_)
  camad::synth::ModuleLibrary lib_;
  std::vector<double> setups_;
  std::size_t rounds_ = 0;
};

}  // namespace

std::unique_ptr<Activity> make_synth(Run& run, Size size) {
  return std::make_unique<SynthActivity>(run, size);
}

}  // namespace perfbench
