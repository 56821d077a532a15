// mc: the guard-aware model checker on one thread on a deep, narrow
// net (nest2x4) and a shallow, wide one with a deadlock witness
// (Philosophers-PT-14). No simulation happens here.

#include <algorithm>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "gen/lift.h"
#include "mc/checker.h"
#include "petri/pnml.h"
#include "util/error.h"

namespace perfbench {

namespace {

struct Expected {
  bool complete = true;
  bool safe = true;
  bool bounded = true;
  bool deadlock = false;
  bool terminates = false;
  std::size_t dead = 0;
  std::size_t markings = 0;
  std::size_t depth = 0;  ///< 0 = not pinned
  /// Partial searches pin only completeness and the counts.
  bool pin_verdicts = true;
};

struct Instance {
  std::string name;
  std::string text;  ///< PNML
  std::size_t max_states = 0;
  Expected expected;
  camad::petri::Net net;
  camad::dcf::System system;
  std::vector<double> check_s;  ///< wall time of each check
  std::vector<double> check_cpu_s;  ///< CPU time of each check
  std::vector<double> inner_s;  ///< McStats::seconds of each check
  camad::mc::McResult first;    ///< the gated result
};

// Probe and tiny runs stop both searches at a level boundary past these
// state counts; the checker's level-granular cutoff makes the partial
// counts below deterministic at any thread count.
constexpr std::size_t kFullStates = std::size_t{1} << 22;
constexpr std::size_t kProbeStates = std::size_t{1} << 13;
constexpr std::size_t kTinyStates = std::size_t{1} << 10;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw camad::Error("cannot read " + path.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool yes(const std::string& cell) { return cell == "yes"; }

/// The Philosophers-PT-14 row of designs/pnml/expected.tsv.
Expected expected_from_tsv(const std::filesystem::path& path,
                           const std::string& instance) {
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string name, safe, bounded, deadlock, terminates, dead, markings;
    row >> name >> safe >> bounded >> deadlock >> terminates >> dead >>
        markings;
    if (name != instance) continue;
    Expected e;
    e.safe = yes(safe);
    e.bounded = yes(bounded);
    e.deadlock = yes(deadlock);
    e.terminates = yes(terminates);
    e.dead = std::stoul(dead);
    e.markings = std::stoul(markings);
    return e;
  }
  throw camad::Error("no row for " + instance + " in " + path.string());
}

std::vector<Instance> instances(const Run& run, Size size) {
  const std::filesystem::path designs = run.root / "designs";
  Instance nest;
  nest.name = "nest2x4";
  nest.text = read_file(designs / "bench" / "nest2x4.pnml");
  // The counts docs/PERF.md records for this net (1,715,364 states, 35
  // levels); `camadc verify` finds it safe, bounded and terminating.
  nest.expected.terminates = true;
  nest.expected.markings = 1715364;
  nest.expected.depth = 35;
  Instance phil;
  phil.name = "Philosophers-PT-14";
  phil.text = read_file(designs / "pnml" / "Philosophers-PT-14.pnml");
  phil.expected =
      expected_from_tsv(designs / "pnml" / "expected.tsv", phil.name);
  phil.expected.depth = 14;
  if (size == Size::kFull) {
    nest.max_states = phil.max_states = kFullStates;
  } else {
    // Partial searches: only the verdicts of the expanded prefix hold,
    // so the gate pins the cutoff and the counts instead.
    const bool probe = size == Size::kProbe;
    nest.max_states = phil.max_states = probe ? kProbeStates : kTinyStates;
    for (Instance* inst : {&nest, &phil}) {
      inst->expected = Expected{};
      inst->expected.complete = false;
      inst->expected.pin_verdicts = false;
    }
    nest.expected.markings = probe ? 7299 : 336;
    phil.expected.markings = probe ? 2654 : 652;
  }
  return {std::move(nest), std::move(phil)};
}

class McActivity : public Activity {
 public:
  McActivity(Run& run, Size size) : run_(run), set_(instances(run, size)) {}

  /// Parses and lifts both instances.
  void setup() override {
    const double t0 = cpu_s();
    for (Instance& inst : set_) {
      {
        Tracer::Scope span(run_.tracer, "petri.from_pnml", inst.name);
        inst.net = camad::petri::from_pnml(inst.text).net;
      }
      inst.system = camad::gen::lift_control_net(inst.net, {}, inst.name);
    }
    setups_.push_back(cpu_s() - t0);
  }
  [[nodiscard]] const std::vector<double>& setup_s() const override {
    return setups_;
  }
  [[nodiscard]] std::size_t setup_burst() const override { return 5; }
  [[nodiscard]] std::size_t inputs() const override { return set_.size(); }

  /// One check of the next instance in turn.
  void round() override {
    Instance& inst = set_[rounds_++ % set_.size()];
    camad::mc::McOptions options;
    options.threads = run_.threads;
    options.max_states = inst.max_states;
    const double t0 = now_s();
    const double c0 = cpu_s();
    camad::mc::McResult r;
    {
      Tracer::Scope span(run_.tracer, "mc.model_check", inst.name);
      r = camad::mc::model_check(inst.system, options);
    }
    inst.check_cpu_s.push_back(cpu_s() - c0);
    inst.check_s.push_back(now_s() - t0);
    inst.inner_s.push_back(r.stats.seconds);
    if (inst.check_s.size() == 1) {
      gate(inst, r);
      inst.first = std::move(r);
    }
  }

  /// mc_states_per_s is both instances' states over the sum of their
  /// mean check CPU times.
  void finish() override {
    double states = 0, seconds = 0;
    for (const Instance& inst : set_) {
      states += static_cast<double>(inst.first.state_count);
      seconds += trimmed_mean(inst.check_cpu_s);
      run_.samples["mc.check_cpu_s." + inst.name] = {inst.check_cpu_s,
                                                     "cpu_s"};
    }
    run_.e2e["mc_states_per_s"] = {states / run_.ref_s(seconds),
                                   "states/ref_s"};
    if (!run_.tracer.enabled()) return;

    std::size_t depth = 0, max_frontier = 0, max_probe = 0;
    std::uint64_t store_bytes = 0, round_states = 0;
    for (const Instance& inst : set_) {
      const camad::mc::McResult& r = inst.first;
      run_.layer["mc.check_s." + inst.name] = {median(inst.check_s), "s"};
      run_.layer["mc.inner_s." + inst.name] = {median(inst.inner_s), "s"};
      depth = std::max(depth, r.depth);
      max_frontier = std::max(max_frontier, r.stats.max_frontier);
      max_probe = std::max(max_probe, r.stats.max_probe_length);
      store_bytes += r.stats.store_bytes;
      round_states += r.state_count;
    }
    run_.layer["mc.states"] = {static_cast<double>(round_states), "count"};
    run_.layer["mc.depth"] = {static_cast<double>(depth), "count"};
    run_.layer["mc.max_frontier"] = {static_cast<double>(max_frontier),
                                     "count"};
    run_.layer["mc.max_probe_length"] = {static_cast<double>(max_probe),
                                         "count"};
    run_.layer["mc.store_bytes_per_state"] = {
        static_cast<double>(store_bytes) / static_cast<double>(round_states),
        "B/state"};
    // Set-up spans cover every repetition; report one set-up's share.
    run_.layer["petri.from_pnml_s"] = {
        run_.tracer.totals().at("petri.from_pnml").total_s /
            static_cast<double>(setups_.size()),
        "s"};
  }

 private:
  void gate(const Instance& inst, const camad::mc::McResult& r) {
    Expected e = inst.expected;
    if (run_.perturb_expected) ++e.markings;
    bool ok = r.complete == e.complete && r.marking_count == e.markings &&
              (e.depth == 0 || r.depth == e.depth);
    if (e.pin_verdicts) {
      ok = ok && r.safe == e.safe && r.bounded == e.bounded &&
           r.deadlock == e.deadlock && r.can_terminate == e.terminates &&
           r.dead_transitions.size() == e.dead;
    }
    if (r.deadlock) {
      // The witness trace must replay to the witness marking.
      ok = ok && r.deadlock_witness.has_value() &&
           camad::mc::replay_trace(inst.net, r.deadlock_trace) ==
               r.deadlock_witness;
    }
    run_.check(ok, "mc " + inst.name + ": verdicts/counts differ from the " +
                       "expected (markings " +
                       std::to_string(r.marking_count) + ", depth " +
                       std::to_string(r.depth) + ")");
  }

  Run& run_;
  std::vector<Instance> set_;
  std::vector<double> setups_;
  std::size_t rounds_ = 0;
};

}  // namespace

std::unique_ptr<Activity> make_mc(Run& run, Size size) {
  return std::make_unique<McActivity>(run, size);
}

}  // namespace perfbench
