// sim: seeded batch sweeps plus warm Simulator::run loops over the seven
// bench designs, under the maximal-step and random-order policies and
// the default engine.

#include <cmath>
#include <memory>
#include <sstream>

#include "bench.h"
#include "sim/batch.h"
#include "sim/environment.h"
#include "synth/compile.h"
#include "synth/designs.h"
#include "synth/parser.h"

namespace perfbench {

namespace {

using camad::sim::FiringPolicy;

// A guarded loop whose expensive branch reads only the loop-invariant
// input, so its ~480-op cone repeats unchanged every iteration: the
// low-activity shape (activity ~0.01) beside the dense named designs.
// Inputs are drawn from [1, 99], so the guard always holds: which branch
// a run pays for, ten times apart per cycle, must not depend on the seed.
std::string guarded_branch_source() {
  std::ostringstream os;
  os << "design guarded_branch {\n"
        "  in x;\n  out y;\n  var acc, i, s, w;\n  begin\n"
        "    acc := 0;\n    i := 48;\n    s := x;\n"
        "    while i > 0 {\n"
        "      if s > 0 {\n"
        "        w := ";
  for (int k = 0; k < 160; ++k) {
    if (k != 0) os << " + ";
    os << "(s + " << 2 * k + 1 << ") * (s + " << 2 * k + 2 << ")";
  }
  os << ";\n"
        "      } else {\n"
        "        w := s + 7;\n"
        "      }\n"
        "      acc := acc + w;\n      y := acc;\n      i := i - 1;\n"
        "    }\n  end\n}\n";
  return os.str();
}

constexpr FiringPolicy kPolicies[] = {FiringPolicy::kMaximalStep,
                                      FiringPolicy::kRandomOrder};
constexpr const char* kPolicyNames[] = {"maximal", "random"};

// Environments: 64 values per input in [1, 99]. Zero is excluded
// because gcd never terminates on a zero operand.
constexpr std::size_t kStreamLength = 64;
constexpr std::int64_t kValueLo = 1;
constexpr std::int64_t kValueHi = 99;

struct Sizes {
  std::size_t batch_calls;  ///< simulate_batch_seeds calls per lane
  std::size_t batch_runs;   ///< runs per simulate_batch_seeds call
  std::size_t warm_runs;    ///< Simulator::run calls per lane
};

/// Per round and lane: 64 batch runs in calls of 16, and 16 warm runs.
/// Each call and each warm run is one sample of a few milliseconds or
/// less (see round()).
Sizes sizes_for(Size size) {
  return size == Size::kTiny ? Sizes{1, 2, 1} : Sizes{4, 16, 16};
}

struct Lane {  // one (design, policy) pair
  std::size_t design = 0;
  std::size_t policy = 0;
  std::unique_ptr<camad::sim::Simulator> simulator;
  camad::sim::Environment env;
};

struct Prepared {
  std::vector<std::string> names;
  std::vector<camad::dcf::System> systems;
  std::vector<Lane> lanes;
};

camad::sim::SimOptions options_for(std::size_t policy, std::uint64_t seed) {
  camad::sim::SimOptions options;
  options.policy = kPolicies[policy];
  options.seed = seed;
  return options;
}

/// Compiles the designs, builds one Simulator per (design, policy) and
/// runs each once, so plans are compiled before timing starts.
Prepared prepare(Run& run) {
  Prepared p;
  std::vector<std::pair<std::string, std::string>> sources;
  for (const camad::synth::NamedDesign& d : camad::synth::all_designs()) {
    sources.emplace_back(d.name, std::string(d.source));
  }
  sources.emplace_back("guarded_branch", guarded_branch_source());
  for (const auto& [name, source] : sources) {
    // Labelled apart from the synth activity's own compile spans.
    Tracer::Scope span(run.tracer, "synth.compile", "sim." + name);
    p.names.push_back(name);
    p.systems.push_back(
        camad::synth::compile(camad::synth::parse_program(source)));
  }
  for (std::size_t d = 0; d < p.systems.size(); ++d) {
    for (std::size_t policy = 0; policy < 2; ++policy) {
      Lane lane;
      lane.design = d;
      lane.policy = policy;
      {
        Tracer::Scope span(run.tracer, "sim.Simulator.construct",
                           p.names[d]);
        lane.simulator =
            std::make_unique<camad::sim::Simulator>(p.systems[d]);
      }
      lane.env = camad::sim::Environment::random_for(
          p.systems[d], run.seed * 1000 + d, kStreamLength, kValueLo,
          kValueHi);
      {
        Tracer::Scope span(run.tracer, "sim.Simulator.run_cold", p.names[d]);
        (void)lane.simulator->run(lane.env, options_for(policy, run.seed));
      }
      p.lanes.push_back(std::move(lane));
    }
  }
  return p;
}

class SimActivity : public Activity {
 public:
  SimActivity(Run& run, Size size) : run_(run), sizes_(sizes_for(size)) {}

  void setup() override {
    const double t0 = cpu_s();
    p_ = prepare(run_);
    setups_.push_back(cpu_s() - t0);
  }
  [[nodiscard]] const std::vector<double>& setup_s() const override {
    return setups_;
  }

  /// Every (design, policy) lane: the batch calls, then the warm loop.
  /// Each batch call and each warm run is timed as one sample of its
  /// lane's simulated cycles per CPU second.
  void round() override {
    batch_rates_.resize(p_.lanes.size());
    warm_rates_.resize(p_.lanes.size());
    for (std::size_t l = 0; l < p_.lanes.size(); ++l) {
      Lane& lane = p_.lanes[l];
      const std::string& name = p_.names[lane.design];
      for (std::size_t call = 0; call < sizes_.batch_calls; ++call) {
        const double t0 = cpu_s();
        std::uint64_t n = 0;
        {
          Tracer::Scope span(run_.tracer, "sim.simulate_batch_seeds", name);
          for (const camad::sim::SimResult& r :
               camad::sim::simulate_batch_seeds(
                   p_.systems[lane.design],
                   run_.seed * 1000 + lane.design + 100 * call,
                   sizes_.batch_runs, kStreamLength,
                   options_for(lane.policy, run_.seed), run_.threads,
                   kValueLo, kValueHi)) {
            n += tally(r, name);
          }
        }
        batch_rates_[l].push_back(static_cast<double>(n) / (cpu_s() - t0));
        cycles_by_design_[name] += n;
      }
      for (std::size_t i = 0; i < sizes_.warm_runs; ++i) {
        lane.env.rewind();
        const double t0 = cpu_s();
        std::uint64_t n = 0;
        {
          Tracer::Scope span(run_.tracer, "sim.Simulator.run", name);
          n = tally(lane.simulator->run(
                        lane.env, options_for(lane.policy, run_.seed + i)),
                    name);
        }
        warm_rates_[l].push_back(static_cast<double>(n) / (cpu_s() - t0));
        cycles_by_design_[name] += n;
      }
    }
  }

  /// sim_cycles_per_s is the geometric mean, over the (design, policy)
  /// lanes and their two kinds of sample (batch call, warm run), of each
  /// sample set's trimmed mean rate: unlike a pooled rate it does not move when
  /// the seed shifts cycles between cheap and expensive designs.
  void finish() override {
    double log_sum = 0;
    for (std::size_t l = 0; l < p_.lanes.size(); ++l) {
      const Lane& lane = p_.lanes[l];
      const std::string key = "sim.cycles_per_cpu_s." +
                              p_.names[lane.design] + "." +
                              kPolicyNames[lane.policy];
      log_sum += std::log(trimmed_mean(batch_rates_[l])) +
                 std::log(trimmed_mean(warm_rates_[l]));
      run_.samples[key + ".batch"] = {batch_rates_[l], "cycles/cpu_s"};
      run_.samples[key + ".warm"] = {warm_rates_[l], "cycles/cpu_s"};
    }
    run_.e2e["sim_cycles_per_s"] = {
        std::exp(log_sum / static_cast<double>(2 * p_.lanes.size())) /
            run_.ref_scale,
        "cycles/ref_s"};
    gate();
    if (!run_.tracer.enabled()) return;
    const auto totals = run_.tracer.totals();
    auto total = [&](const std::string& key) {
      auto it = totals.find(key);
      return it == totals.end() ? 0.0 : it->second.total_s;
    };
    std::uint64_t cycles = 0;
    for (const auto& [name, n] : cycles_by_design_) {
      cycles += n;
      const double busy = total("sim.simulate_batch_seeds/" + name) +
                          total("sim.Simulator.run/" + name);
      run_.layer["sim.cycles_per_s." + name] = {
          static_cast<double>(n) / busy, "cycles/s"};
    }
    run_.layer["sim.warm_run_s"] = {
        total("sim.simulate_batch_seeds") + total("sim.Simulator.run"), "s"};
    run_.layer["sim.runs"] = {static_cast<double>(runs_), "count"};
    run_.layer["sim.cycles"] = {static_cast<double>(cycles), "count"};
    // Set-up spans cover every repetition; report one set-up's share.
    const double reps = static_cast<double>(setups_.size());
    run_.layer["sim.construct_s"] = {total("sim.Simulator.construct") / reps,
                                     "s"};
    run_.layer["sim.cold_run_s"] = {total("sim.Simulator.run_cold") / reps,
                                    "s"};
  }

 private:
  /// Counts a timed run (it must be free of runtime violations) and
  /// returns its cycles.
  std::uint64_t tally(const camad::sim::SimResult& result,
                      const std::string& design) {
    ++runs_;
    run_.sim_stats += result.stats;
    run_.check(result.violations.empty(),
               "sim " + design + ": runtime violation " +
                   (result.violations.empty() ? "" : result.violations[0]));
    return result.cycles;
  }

  /// One run per (design, policy) must match the reference engine on
  /// events, verdict, cycle count and final registers.
  void gate() {
    for (std::size_t d = 0; d < p_.systems.size(); ++d) {
      for (std::size_t policy = 0; policy < 2; ++policy) {
        const camad::sim::SimOptions options = options_for(policy, run_.seed);
        camad::sim::SimOptions reference = options;
        reference.engine = camad::sim::SimEngine::kReference;
        camad::sim::Environment env = camad::sim::Environment::random_for(
            p_.systems[d], run_.seed * 1000 + d, kStreamLength, kValueLo,
            kValueHi);
        const camad::sim::SimResult got =
            camad::sim::simulate(p_.systems[d], env, options);
        env.rewind();
        const camad::sim::SimResult want =
            camad::sim::simulate(p_.systems[d], env, reference);
        const std::uint64_t want_cycles =
            want.cycles + (run_.perturb_expected ? 1 : 0);
        run_.check(got.trace.events() == want.trace.events() &&
                       got.terminated == want.terminated &&
                       got.deadlocked == want.deadlocked &&
                       got.cycles == want_cycles &&
                       got.final_registers == want.final_registers &&
                       got.violations.empty() && want.violations.empty(),
                   "sim " + p_.names[d] + "/" + kPolicyNames[policy] +
                       ": differs from the reference engine");
      }
    }
  }

  Run& run_;
  Sizes sizes_;
  Prepared p_;
  std::vector<double> setups_;
  std::uint64_t runs_ = 0;
  // Per lane: one rate per batch call and one per warm run.
  std::vector<std::vector<double>> batch_rates_, warm_rates_;
  std::map<std::string, std::uint64_t> cycles_by_design_;
};

}  // namespace

std::unique_ptr<Activity> make_sim(Run& run, Size size) {
  return std::make_unique<SimActivity>(run, size);
}

}  // namespace perfbench
