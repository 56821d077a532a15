// serve: an in-process Service + Server on loopback with one worker,
// driven by a closed loop on one client connection, so
// that the process's CPU time between a request and its response is that
// request's alone. The request mix is camad_load's repeated-design mix
// (simulate / verify / transform / repeat upload over gcd and traffic,
// 4:3:1:2) with one request in twelve uploading a never-seen generated
// design, followed by a simulate or verify of it.
//
// Each round is a window: a fresh service (its start-up is a set-up
// sample) replays the same seeded request stream, and every response is
// byte-compared against a single-worker oracle Service that answered
// the stream once, up front. A fresh service per window keeps every
// generated design never-seen and the store's size the same in every
// window, so memory does not grow with throughput.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <sstream>
#include <thread>

#include "bench.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "synth/designs.h"
#include "util/error.h"
#include "util/json.h"

namespace perfbench {

namespace {

constexpr const char* kOps[] = {"simulate", "verify", "transform", "upload",
                                "upload_fresh"};

struct Step {
  std::string request;
  std::string op;  ///< one of kOps
};

/// Requests per window.
std::size_t steps_for(Size size) { return size == Size::kTiny ? 24 : 600; }

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string upload_request(std::string_view source) {
  std::ostringstream os;
  camad::JsonWriter w(os);
  w.begin_object().kv("op", "upload").kv("source", source).end_object();
  return os.str();
}

std::string simulate_request(const std::string& design, std::uint64_t seed) {
  std::ostringstream os;
  camad::JsonWriter w(os);
  w.begin_object()
      .kv("op", "simulate")
      .kv("design", design)
      .kv("seed", seed)
      .kv("max_cycles", 2000)
      .kv("max_events", 16)
      .end_object();
  return os.str();
}

std::string verify_request(const std::string& design) {
  std::ostringstream os;
  camad::JsonWriter w(os);
  w.begin_object().kv("op", "verify").kv("design", design).end_object();
  return os.str();
}

std::string transform_request(const std::string& design) {
  std::ostringstream os;
  camad::JsonWriter w(os);
  w.begin_object()
      .kv("op", "transform")
      .kv("design", design)
      .kv("passes", "parallelize,cleanup")
      .end_object();
  return os.str();
}

std::string design_id(const std::string& upload_response) {
  const camad::JsonValue v = camad::json_parse(upload_response);
  const camad::JsonValue* result = v.find("result");
  const camad::JsonValue* id =
      result == nullptr ? nullptr : result->find("design");
  if (id == nullptr) {
    throw camad::Error("upload failed: " + upload_response);
  }
  return id->string;
}

const std::vector<std::string_view>& base_sources() {
  static const std::vector<std::string_view> sources = {
      camad::synth::gcd_source(), camad::synth::traffic_source()};
  return sources;
}

/// The seeded request stream, plus the oracle's answer to every distinct
/// request in it.
struct Traffic {
  std::vector<Step> stream;
  std::map<std::string, std::string> oracle;
};

/// A never-seen design: one fixed shape, so every fresh upload costs the
/// same to compile, check and simulate, with constants that differ per
/// upload (constants enter the content hash, so each is a new design).
std::string fresh_source(std::uint64_t unique, std::uint64_t& state) {
  std::ostringstream os;
  os << "design fresh {\n  in a, b;\n  out o;\n  var x, y, k;\n  begin\n"
     << "    x := a + " << 1 + splitmix(state) % 1000 << ";\n"
     << "    y := b * " << unique << " + " << splitmix(state) % 1000 << ";\n"
     << "    k := 4;\n    while k > 0 {\n"
     << "      if x > y {\n        x := x - y;\n      } else {\n"
     << "        y := y + " << 1 + splitmix(state) % 1000 << ";\n      }\n"
     << "      k := k - 1;\n    }\n    o := x + y;\n  end\n}\n";
  return os.str();
}

/// Steps per block: one fresh upload and its follow-up, then the
/// repeated-design mix in camad_load's 4:3:1:2 proportions (simulate,
/// verify, transform, repeat upload), as exact quotas so that a window's
/// work does not depend on the seed, only its order.
constexpr std::size_t kBlock = 12;
constexpr const char* kRepeatedSlots[kBlock - 2] = {
    "simulate", "simulate", "simulate",  "simulate", "verify",
    "verify",   "verify",   "transform", "upload",   "upload"};

/// Builds the seeded stream against a single-worker oracle Service:
/// uploading to the oracle is how a generated design's id (its content
/// hash) is learnt before the follow-up request naming it is written.
Traffic make_traffic(std::uint64_t seed, std::size_t steps) {
  camad::serve::ServiceOptions one;
  one.workers = 1;
  camad::serve::Service oracle(one);
  Traffic t;
  auto answer = [&](const std::string& request) -> const std::string& {
    auto it = t.oracle.find(request);
    if (it == t.oracle.end()) {
      it = t.oracle.emplace(request, oracle.handle(request)).first;
    }
    return it->second;
  };
  std::vector<std::string> base_ids;
  for (std::string_view source : base_sources()) {
    base_ids.push_back(design_id(answer(upload_request(source))));
  }
  std::uint64_t state = seed * 0x100000001b3ULL;
  std::vector<Step>& stream = t.stream;
  for (std::size_t block = 0; stream.size() + kBlock <= steps; ++block) {
    std::vector<Step> slots;
    for (std::size_t j = 0; j < kBlock - 2; ++j) {
      const std::string kind = kRepeatedSlots[j];
      const std::size_t base = (block + j) % base_ids.size();
      const std::string& id = base_ids[base];
      if (kind == "simulate") {
        slots.push_back({simulate_request(id, 1 + splitmix(state) % 4), kind});
      } else if (kind == "verify") {
        slots.push_back({verify_request(id), kind});
      } else if (kind == "transform") {
        slots.push_back({transform_request(id), kind});
      } else {
        slots.push_back({upload_request(base_sources()[base]), kind});
      }
    }
    for (std::size_t j = slots.size(); j > 1; --j) {
      std::swap(slots[j - 1], slots[splitmix(state) % j]);
    }
    const std::string upload =
        upload_request(fresh_source(1 + block, state));
    const std::string id = design_id(answer(upload));
    const auto at =
        static_cast<std::ptrdiff_t>(splitmix(state) % (slots.size() + 1));
    Step follow = block % 2 == 0
                      ? Step{simulate_request(id, 1 + splitmix(state) % 4),
                             "simulate"}
                      : Step{verify_request(id), "verify"};
    slots.insert(slots.begin() + at,
                 {Step{upload, "upload_fresh"}, std::move(follow)});
    stream.insert(stream.end(), slots.begin(), slots.end());
  }
  for (const Step& step : stream) (void)answer(step.request);
  return t;
}

/// One framed loopback TCP connection.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw camad::Error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      throw camad::Error("cannot connect to the in-process server");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// One round trip; empty on a transport error.
  std::string call(const std::string& request) {
    std::string response;
    if (!camad::serve::write_frame(fd_, request) ||
        camad::serve::read_frame(fd_, response) !=
            camad::serve::FrameStatus::kOk) {
      return {};
    }
    return response;
  }

 private:
  int fd_ = -1;
};

/// Span request id of the stream's i-th request (0 means none).
std::uint64_t request_id(std::size_t index) { return index + 1; }

struct Outcome {
  std::uint64_t wrong = 0;
  std::uint64_t overloaded = 0;
};

/// Counts a response: byte-equal to the oracle, or a failure.
void judge(Run& run, Outcome& out, const Traffic& t, const Step& step,
           const std::string& response) {
  std::string want = t.oracle.at(step.request);
  if (run.perturb_expected) want += ' ';
  const bool ok = response == want;
  if (!ok) {
    ++out.wrong;
    if (response.find("\"overloaded\"") != std::string::npos) {
      ++out.overloaded;
    }
  }
  run.check(ok, "serve " + step.op + ": response differs from the oracle");
}

camad::serve::ServiceOptions service_options(std::size_t workers) {
  camad::serve::ServiceOptions options;
  options.workers = workers;
  return options;
}

/// A started Service + Server on loopback and the client connection to
/// it; the destructor drains the server and joins its thread.
class LiveService {
 public:
  explicit LiveService(std::size_t workers)
      : service_(service_options(workers)),
        server_(service_, camad::serve::ServerOptions{}),
        serving_([this] { server_.serve(); }) {
    conn_ = std::make_unique<Connection>(server_.port());
  }
  ~LiveService() {
    conn_.reset();
    server_.stop();
    serving_.join();
  }
  LiveService(const LiveService&) = delete;
  LiveService& operator=(const LiveService&) = delete;

  [[nodiscard]] Connection& conn() { return *conn_; }
  [[nodiscard]] camad::serve::Service& service() { return service_; }

 private:
  camad::serve::Service service_;
  camad::serve::Server server_;
  std::unique_ptr<Connection> conn_;
  std::thread serving_;  // declared last: started last, joined first
};

/// The same stream through Service::handle, no sockets; returns each
/// request's CPU time. The gap to the client latency is the transport's
/// share.
std::vector<double> handle_replay(Run& run, const Traffic& t, Outcome& out) {
  camad::serve::Service service(service_options(run.threads));
  for (std::string_view source : base_sources()) {
    (void)service.handle(upload_request(source));
  }
  Tracer::Scope replay(run.tracer, "serve.handle_replay");
  std::vector<double> latencies;
  for (std::size_t i = 0; i < t.stream.size(); ++i) {
    const Step& step = t.stream[i];
    std::string response;
    const double q0 = cpu_s();
    {
      Tracer::Scope span(run.tracer, "serve.handle", step.op, request_id(i));
      response = service.handle(step.request);
    }
    latencies.push_back(cpu_s() - q0);
    judge(run, out, t, step, response);
  }
  return latencies;
}

class ServeActivity : public Activity {
 public:
  ServeActivity(Run& run, Size size)
      : run_(run), traffic_(make_traffic(run.seed, steps_for(size))) {}

  /// Starts a fresh service, connects the client and uploads the two
  /// base designs. Each window runs on a fresh one.
  void setup() override {
    live_.reset();
    const double t0 = cpu_s();
    live_ = std::make_unique<LiveService>(run_.threads);
    for (std::string_view source : base_sources()) {
      (void)live_->conn().call(upload_request(source));
    }
    setups_.push_back(cpu_s() - t0);
  }
  [[nodiscard]] const std::vector<double>& setup_s() const override {
    return setups_;
  }

  /// One window: the client replays the stream, closed loop. A request's
  /// latency is the CPU time the process spends from its send to its
  /// response, on the client, the server's thread and the worker.
  void round() override {
    if (live_ == nullptr) setup();
    Tracer::Scope window(run_.tracer, "serve.window");
    const std::size_t n = traffic_.stream.size();
    std::vector<double> latencies;
    double busy = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Step& step = traffic_.stream[i];
      std::string response;
      const double q0 = cpu_s();
      {
        Tracer::Scope span(run_.tracer, "serve.request", step.op,
                           request_id(i));
        response = live_->conn().call(step.request);
      }
      const double latency = cpu_s() - q0;
      latencies.push_back(latency);
      busy += latency;
      by_op_[step.op].push_back(latency);
      judge(run_, out_, traffic_, step, response);
    }
    samples_ += n;
    rates_.push_back(static_cast<double>(n) / busy);
    p50_.push_back(percentile(latencies, 0.50));
    p99_.push_back(percentile(latencies, 0.99));
    hit_ratio_ = live_->service().shared_tier_hit_rate();
    store_designs_ = live_->service().store().stats().entries;
    live_.reset();
  }

  /// Every window replays the same stream, so each window's rate
  /// (requests over their summed latency), p50 and p99 measure the same
  /// work; each metric is the trimmed mean of its per-window figures. A stall
  /// that hits some requests of most windows moves the p99.
  void finish() override {
    run_.e2e["serve_req_per_s"] = {trimmed_mean(rates_) / run_.ref_scale,
                                   "req/ref_s"};
    run_.e2e["serve_p50_ms"] = {run_.ref_s(trimmed_mean(p50_)) * 1e3,
                                "ref_ms"};
    run_.e2e["serve_p99_ms"] = {run_.ref_s(trimmed_mean(p99_)) * 1e3,
                                "ref_ms"};
    run_.samples["serve.window_p50_cpu_s"] = {p50_, "cpu_s"};
    run_.samples["serve.window_p99_cpu_s"] = {p99_, "cpu_s"};
    run_.notes["serve.windows"] = std::to_string(p50_.size());
    run_.notes["serve.requests_per_window"] =
        std::to_string(traffic_.stream.size());
    run_.notes["serve.workers"] = std::to_string(run_.threads);
    run_.notes["serve.clients"] = "1";
    if (!run_.tracer.enabled()) return;
    const std::vector<double> handle = handle_replay(run_, traffic_, out_);
    for (const char* op : kOps) {
      const std::vector<double>& d = by_op_[op];
      run_.layer[std::string("serve.") + op + ".p50_ms"] = {
          percentile(d, 0.50) * 1e3, "cpu_ms"};
      run_.layer[std::string("serve.") + op + ".p99_ms"] = {
          percentile(d, 0.99) * 1e3, "cpu_ms"};
    }
    run_.layer["serve.handle_p50_ms"] = {percentile(handle, 0.50) * 1e3,
                                         "cpu_ms"};
    run_.layer["serve.handle_p99_ms"] = {percentile(handle, 0.99) * 1e3,
                                         "cpu_ms"};
    run_.layer["serve.shared_tier_hit_ratio"] = {hit_ratio_, "ratio"};
    run_.layer["serve.store_designs"] = {
        static_cast<double>(store_designs_), "count"};
    run_.layer["serve.overloaded"] = {static_cast<double>(out_.overloaded),
                                      "count"};
    run_.layer["serve.wrong_responses"] = {static_cast<double>(out_.wrong),
                                           "count"};
    run_.layer["serve.latency_samples"] = {static_cast<double>(samples_),
                                           "count"};
  }

 private:
  Run& run_;
  const Traffic traffic_;
  std::unique_ptr<LiveService> live_;
  Outcome out_;
  std::vector<double> setups_;
  // Per window: requests per CPU second, and the p50 and p99 of its
  // latencies in CPU seconds.
  std::vector<double> rates_, p50_, p99_;
  std::map<std::string, std::vector<double>> by_op_;  ///< every latency
  std::size_t samples_ = 0;
  double hit_ratio_ = 0;
  std::uint64_t store_designs_ = 0;
};

}  // namespace

std::unique_ptr<Activity> make_serve(Run& run, Size size) {
  return std::make_unique<ServeActivity>(run, size);
}

}  // namespace perfbench
