#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <iterator>
#include <queue>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace e2ebench {

using namespace orte;

void Samples::add_normalized(const Samples& raw, double probe_ms) {
  for (const auto& [name, values] : raw.series_) {
    std::vector<double>& out = series_[name];
    for (const double v : values) out.push_back(v / probe_ms);
  }
}

std::vector<double> Samples::get(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? std::vector<double>{} : it->second;
}

namespace {

std::atomic<std::uint64_t> probe_sink{0};

/// The probe loop on the calling thread; returns its ms.
double probe_once() {
  const std::int64_t t0 = now_ns();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      queue;
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  std::vector<std::function<std::uint64_t(std::uint64_t)>> steps;
  for (std::uint64_t i = 0; i < 8; ++i) {
    steps.emplace_back([i](std::uint64_t x) { return x * 2654435761U + i; });
  }
  std::uint64_t x = 12345;
  for (std::uint64_t i = 0; i < 28'000; ++i) {
    x = steps[i & 7](x);
    queue.push(x % 100'000);
    counts[x % 4096] += i;
    if (queue.size() > 512) {
      x += queue.top();
      queue.pop();
    }
  }
  probe_sink.fetch_add(x + counts.size(), std::memory_order_relaxed);
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// Mean probe ms of `threads` threads started together.
double probe_threads(int threads) {
  if (threads <= 1) return probe_once();
  std::vector<double> ms(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (std::size_t i = 1; i < ms.size(); ++i) {
    pool.emplace_back([&ms, i] { ms[i] = probe_once(); });
  }
  ms[0] = probe_once();
  for (auto& t : pool) t.join();
  double sum = 0;
  for (const double v : ms) sum += v;
  return sum / static_cast<double>(ms.size());
}

}  // namespace

void SpeedTrack::probe(double min_ms) {
  double spent = 0;
  do {
    const std::int64_t t0 = now_ns();
    const double ms = probe_threads(threads_);
    points_.push_back({t0 + (now_ns() - t0) / 2, ms});
    spent += ms;
  } while (spent < min_ms);
}

double SpeedTrack::speed_at(std::int64_t t_ns) const {
  if (points_.empty()) throw std::logic_error("no speed probe taken");
  const auto by_time = [](const Point& p, std::int64_t t) {
    return p.t_ns < t;
  };
  auto lo = std::lower_bound(points_.begin(), points_.end(),
                             t_ns - kWindowNs, by_time);
  const auto hi = std::lower_bound(lo, points_.end(), t_ns + kWindowNs + 1,
                                   by_time);
  std::vector<double> near;
  for (auto it = lo; it != hi; ++it) near.push_back(it->ms);
  if (!near.empty()) return median(near);
  // Nothing within the window: the closer of the two neighbours.
  if (lo == points_.end()) return points_.back().ms;
  if (lo == points_.begin()) return lo->ms;
  const auto before = std::prev(lo);
  return t_ns - before->t_ns <= lo->t_ns - t_ns ? before->ms : lo->ms;
}

std::vector<double> SpeedTrack::values() const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const Point& p : points_) out.push_back(p.ms);
  return out;
}

double Samples::p50(const std::string& name) const {
  const auto v = get(name);
  if (v.empty()) throw std::runtime_error("no samples of " + name);
  return median(v);
}

std::size_t Samples::count(const std::string& name) const {
  return get(name).size();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::runtime_error("percentile of no samples");
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

void TraceTap::attach(sim::Trace& trace) {
  // Trace IDs are per Trace: resolve each one to a tap-local name index.
  auto categories = std::make_shared<std::vector<std::uint32_t>>();
  auto subjects = std::make_shared<std::vector<std::uint32_t>>();
  const auto resolve = [this, &trace](std::vector<std::uint32_t>& cache,
                                      sim::TraceId id, bool category) {
    if (id >= cache.size()) cache.resize(id + 1, UINT32_MAX);
    if (cache[id] == UINT32_MAX) {
      cache[id] = local(category ? trace.category_name(id)
                                 : trace.subject_name(id));
    }
    return cache[id];
  };
  trace.subscribe_ids([this, categories, subjects,
                       resolve](const sim::TraceEvent& ev) {
    events_.push_back({ev.when, resolve(*categories, ev.category_id, true),
                       resolve(*subjects, ev.subject_id, false), ev.value});
  });
}

std::uint32_t TraceTap::local(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

double TraceTap::replay_ns_per_record(int repeats) const {
  if (events_.empty()) throw std::runtime_error("trace tap saw no records");
  std::vector<double> per_record;
  for (int r = 0; r < repeats; ++r) {
    sim::Trace fresh;
    fresh.enable_retention(false);
    const std::int64_t t0 = now_ns();
    for (const Event& e : events_) {
      fresh.emit(e.when, names_[e.category], names_[e.subject], e.value);
    }
    const std::int64_t t1 = now_ns();
    per_record.push_back(static_cast<double>(t1 - t0) /
                         static_cast<double>(events_.size()));
  }
  return median(per_record);
}

double trace_records(const sim::Trace& trace) {
  double total = 0;
  for (sim::TraceId id = 0; !trace.category_name(id).empty(); ++id) {
    total += static_cast<double>(trace.count(id));
  }
  return total;
}

VfbCounters read_counters(vfb::System& sys, const sim::Kernel& kernel,
                          const sim::Trace& trace) {
  VfbCounters c;
  const sim::KernelCounters k = kernel.counters();
  c.events = static_cast<double>(k.executed);
  c.cancelled = static_cast<double>(k.cancelled);
  c.peak_depth = static_cast<double>(k.peak_queue_depth);
  c.records = trace_records(trace);
  if (sys.can_bus() != nullptr) {
    c.frames = static_cast<double>(sys.can_bus()->stats().frames_delivered());
  } else if (sys.flexray_bus() != nullptr) {
    c.frames =
        static_cast<double>(sys.flexray_bus()->stats().frames_delivered());
  }
  for (const auto& name : sys.ecu_names()) {
    const vfb::Rte& rte = sys.rte(name);
    c.rte_writes += static_cast<double>(rte.writes());
    c.overflows += static_cast<double>(rte.overflows());
    c.pdus += static_cast<double>(sys.com(name).pdus_sent());
    for (const auto& task : sys.ecu(name).tasks()) {
      c.jobs += static_cast<double>(task->jobs_completed());
      c.misses += static_cast<double>(task->deadline_misses());
    }
  }
  c.deliveries = static_cast<double>(trace.count("rte.deliver"));
  if (const rv::MonitorRegistry* reg = sys.monitors()) {
    c.routed = static_cast<double>(reg->records_routed());
    c.delivered = static_cast<double>(reg->records_delivered());
    c.violations = static_cast<double>(reg->health().total());
  }
  return c;
}

void attach_counters(Scope& span, const VfbCounters& b, const VfbCounters& a,
                     double sim_s) {
  span.arg("sim_s", sim_s);
  span.arg("events", a.events - b.events);
  span.arg("cancelled", a.cancelled - b.cancelled);
  span.arg("peak_depth", a.peak_depth);
  span.arg("records", a.records - b.records);
  span.arg("frames", a.frames - b.frames);
  span.arg("rte_writes", a.rte_writes - b.rte_writes);
  span.arg("deliveries", a.deliveries - b.deliveries);
  span.arg("overflows", a.overflows - b.overflows);
  span.arg("routed", a.routed - b.routed);
  span.arg("delivered", a.delivered - b.delivered);
  span.arg("violations", a.violations - b.violations);
  span.arg("jobs", a.jobs - b.jobs);
  span.arg("misses", a.misses - b.misses);
  span.arg("pdus", a.pdus - b.pdus);
}

namespace {

template <typename Fold>
double fold_arg(const SpanRecorder& rec, std::string_view name,
                std::string_view key, Fold fold) {
  double acc = 0;
  for (const Span& s : rec.spans()) {
    if (s.name != name) continue;
    for (const auto& [k, v] : s.args) {
      if (k == key) acc = fold(acc, v);
    }
  }
  return acc;
}

}  // namespace

double sum_arg(const SpanRecorder& rec, std::string_view name,
               std::string_view key) {
  return fold_arg(rec, name, key, [](double a, double v) { return a + v; });
}

double max_arg(const SpanRecorder& rec, std::string_view name,
               std::string_view key) {
  return fold_arg(rec, name, key,
                  [](double a, double v) { return std::max(a, v); });
}

std::size_t span_count(const SpanRecorder& rec, std::string_view name) {
  return static_cast<std::size_t>(
      std::count_if(rec.spans().begin(), rec.spans().end(),
                    [name](const Span& s) { return s.name == name; }));
}

void vfb_layer_metrics(const SpanRecorder& rec, std::size_t ops,
                       MetricSink& m) {
  constexpr std::string_view kRun = "vfb.run_for";
  const auto sum = [&rec](std::string_view key) {
    return sum_arg(rec, kRun, key);
  };
  const double sim_s = sum("sim_s");
  const double events = sum("events");
  double host_ns = 0;
  for (const double ms : rec.durations_ms(kRun)) host_ns += ms * 1e6;
  const double n = static_cast<double>(ops);
  m.set("sim.kernel.events_per_sim_s", events / sim_s);
  m.set("sim.kernel.host_ns_per_event", host_ns / events);
  m.set("sim.kernel.cancelled", sum("cancelled") / n);
  m.set("sim.kernel.peak_queue_depth", max_arg(rec, kRun, "peak_depth"));
  m.set("sim.trace.records_per_sim_s", sum("records") / sim_s);
  m.set("os.jobs_per_sim_s", sum("jobs") / sim_s);
  m.set("os.deadline_misses", sum("misses") / n);
  m.set("bsw.com.pdus_per_sim_s", sum("pdus") / sim_s);
  m.set("vfb.rte.writes_per_sim_s", sum("rte_writes") / sim_s);
  m.set("vfb.rte.deliveries_per_sim_s", sum("deliveries") / sim_s);
  m.set("vfb.rte.overflows", sum("overflows") / n);
  m.set("vfb.build_ms", median(rec.durations_ms("vfb.System")));
  m.set("rv.records_routed", sum("routed") / n);
  m.set("rv.delivery_ratio", sum("delivered") / sum("routed"));
  m.set("rv.violations", sum("violations") / n);
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == kBbw) return make_bbw();
  if (name == kGen) return make_gen(seed);
  if (name == kE9b) return make_e9b(seed);
  if (name == kMpsoc) return make_mpsoc();
  return nullptr;
}

}  // namespace e2ebench
