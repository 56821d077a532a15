#include "bench.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>

#include "util/json.h"

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> t_open;

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

/// Keeps the reference loop's result live.
std::atomic<std::uint64_t> reference_sink{0};

}  // namespace

double reference_rate() {
  static std::uint32_t table[4096];
  const double t0 = cpu_s();
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (int i = 0; i < 20000; ++i) {
    a = a * 6364136223846793005ULL + table[(b >> 20) & 4095];
    b ^= a >> 7;
    if ((b & 1) != 0) {
      c += a;
    } else {
      d -= b;
    }
    c = ((c << 13) | (c >> 51)) * 0x9e3779b97f4a7c15ULL;
    d += c ^ (d >> 11);
    table[a & 4095] ^= static_cast<std::uint32_t>(d);
  }
  reference_sink.fetch_add(a + b + c + d, std::memory_order_relaxed);
  return 1 / (cpu_s() - t0);
}

double trimmed_mean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 10;
  double sum = 0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}


Tracer::Scope::Scope(Tracer& tracer, std::string_view name,
                     std::string_view label, std::uint64_t request)
    : Scope(tracer, t_open.empty() ? 0 : t_open.back(), name, label,
            request) {}

Tracer::Scope::Scope(Tracer& tracer, std::uint64_t parent,
                     std::string_view name, std::string_view label,
                     std::uint64_t request) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  {
    std::lock_guard<std::mutex> lock(tracer.mu_);
    span_.id = tracer.next_id_++;
  }
  span_.parent = parent;
  span_.request = request;
  span_.name = name;
  span_.label = label;
  t_open.push_back(span_.id);
  span_.start = now_s();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end = now_s();
  t_open.pop_back();
  tracer_->record(std::move(span_));
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::durations(std::string_view name,
                                      std::string_view label) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && (label.empty() || s.label == label)) {
      out.push_back(s.end - s.start);
    }
  }
  return out;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Child intervals per parent, clipped to the parent when merged below.
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, Totals> out;
  for (const Span& s : spans_) {
    double covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      std::vector<std::pair<double, double>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      double reach = s.start;
      for (const auto& [a, b] : kids) {
        const double lo = std::max(a, reach);
        const double hi = std::min(b, s.end);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, std::min(b, s.end));
      }
    }
    const double duration = s.end - s.start;
    for (const std::string& key :
         {s.name, s.label.empty() ? std::string() : s.name + "/" + s.label}) {
      if (key.empty()) continue;
      Totals& t = out[key];
      ++t.count;
      t.total_s += duration;
      t.self_s += std::max(0.0, duration - covered);
    }
  }
  return out;
}

void Tracer::write_json(const std::filesystem::path& path,
                        const std::string& meta_json) const {
  const std::map<std::string, Totals> sums = totals();
  std::ofstream out(path);
  camad::JsonWriter w(out);
  w.begin_object().key("meta").raw(meta_json).key("self_time").begin_object();
  for (const auto& [name, t] : sums) {
    w.key(name)
        .begin_object()
        .kv("count", t.count)
        .kv("total_s", t.total_s)
        .kv("self_s", t.self_s)
        .end_object();
  }
  w.end_object().key("spans").begin_array();
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    w.begin_object()
        .kv("id", s.id)
        .kv("parent", s.parent)
        .kv("request", s.request)
        .kv("name", s.name)
        .kv("label", s.label)
        .kv("start", s.start)
        .kv("end", s.end)
        .end_object();
  }
  w.end_array().end_object();
  out << '\n';
}

void Run::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  // The first few failures of each activity ("sim ...", "mc ...").
  const std::string activity = what.substr(0, what.find(' '));
  if (++failures_by_activity[activity] <= 4) failures.push_back(what);
}

}  // namespace perfbench
