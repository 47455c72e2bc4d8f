#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace e2ebench {

namespace {

const std::vector<std::string_view> kAll{kBbw, kGen, kE9b, kMpsoc};
const std::vector<std::string_view> kSims{kBbw, kGen, kMpsoc};
const std::vector<std::string_view> kVfb{kBbw, kGen};

std::vector<MetricDef> build_table() {
  std::vector<MetricDef> t;
  const auto e2e = [&t](std::string name, std::string unit,
                        std::vector<std::string_view> w) {
    t.push_back({std::move(name), std::move(unit), true, "end_to_end",
                 std::move(w)});
  };
  const auto layer = [&t](std::string layer_name, std::string name,
                          std::string unit, std::vector<std::string_view> w) {
    t.push_back({std::move(name), std::move(unit), false,
                 std::move(layer_name), std::move(w)});
  };
  e2e("setup_s", "s", kAll);
  e2e("op_ms_p50", "ms", kAll);
  e2e("host_ms_per_sim_s_p50", "ms", kAll);
  e2e("peak_rss_mb", "MB", kAll);

  layer("sim", "sim.kernel.events_per_sim_s", "1/sim_s", kSims);
  layer("sim", "sim.kernel.host_ns_per_event", "ns", kSims);
  layer("sim", "sim.kernel.cancelled", "count", kSims);
  layer("sim", "sim.kernel.peak_queue_depth", "count", kSims);
  layer("sim", "sim.trace.records_per_sim_s", "1/sim_s", kSims);
  layer("sim", "sim.trace.host_ns_per_record", "ns", kSims);
  layer("flexray", "flexray.frames_per_sim_s", "1/sim_s", {kBbw});
  layer("flexray", "flexray.slot_useful_ratio", "ratio", {kBbw});
  layer("can", "can.frames_per_sim_s", "1/sim_s", {kGen});
  layer("can", "can.utilization", "ratio", {kGen});
  layer("can", "can.queueing_delay_p50_us", "sim_us", {kGen});
  layer("noc", "noc.delivered_per_sim_s", "1/sim_s", {kMpsoc});
  layer("noc", "noc.slot_useful_ratio", "ratio", {kMpsoc});
  layer("noc", "noc.overlay_frames_per_sim_s", "1/sim_s", {kMpsoc});
  layer("os", "os.jobs_per_sim_s", "1/sim_s", kSims);
  layer("os", "os.deadline_misses", "count", kSims);
  layer("bsw", "bsw.com.pdus_per_sim_s", "1/sim_s", kVfb);
  layer("vfb", "vfb.rte.writes_per_sim_s", "1/sim_s", kVfb);
  layer("vfb", "vfb.rte.deliveries_per_sim_s", "1/sim_s", kVfb);
  layer("vfb", "vfb.rte.overflows", "count", kVfb);
  layer("vfb", "vfb.build_ms", "ms", kVfb);
  layer("vfb", "vfb.generate_self_ms", "ms", {kGen});
  layer("vfb", "vfb.analyze_ms", "ms", {kGen});
  layer("validation", "validation.validate_ms", "ms", {kGen});
  layer("validation", "validation.analyze_chains_ms", "ms", {kGen});
  layer("validation", "validation.detectability_ms", "ms", {kGen});
  layer("validation", "validation.diagnostics", "count", {kGen});
  layer("rv", "rv.records_routed", "count", kVfb);
  layer("rv", "rv.delivery_ratio", "ratio", kVfb);
  layer("rv", "rv.violations", "count", kVfb);
  layer("rv", "rv.host_share", "ratio", {kBbw});
  layer("fi", "fi.factory_us_p50", "us", {kE9b});
  layer("fi", "fi.scenario_ms_p50", "ms", {kE9b});
  layer("fi", "fi.scenario_ms_p90", "ms", {kE9b});
  layer("fi", "fi.thread_imbalance", "ratio", {kE9b});
  layer("fi", "fi.outcome.contained", "count", {kE9b});
  layer("fi", "fi.outcome.leaked", "count", {kE9b});
  layer("fi", "fi.outcome.missed", "count", {kE9b});
  layer("fi", "fi.outcome.spurious", "count", {kE9b});
  layer("trace", "trace.overhead_pct", "%", kAll);
  return t;
}

const MetricDef* find_def(std::string_view name) {
  for (const auto& d : metric_table()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

bool has_workload(const MetricDef& d, std::string_view workload) {
  return std::find(d.workloads.begin(), d.workloads.end(), workload) !=
         d.workloads.end();
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

const std::vector<MetricDef>& metric_table() {
  static const std::vector<MetricDef> table = build_table();
  return table;
}

const std::vector<std::string_view>& workload_names() { return kAll; }

bool in_row(std::string_view metric, std::string_view workload) {
  const MetricDef* d = find_def(metric);
  return d != nullptr && has_workload(*d, workload);
}

void MetricSink::set(const std::string& name, double value) {
  const MetricDef* d = find_def(name);
  if (d == nullptr) throw std::logic_error("unknown metric " + name);
  if (d->end_to_end == traced_) {
    throw std::logic_error("metric " + name + " belongs to the " +
                           (traced_ ? "untraced" : "traced") + " run");
  }
  if (!has_workload(*d, workload_)) {
    throw std::logic_error("metric " + name + " is not emitted on " +
                           std::string(workload_));
  }
  if (!std::isfinite(value)) {
    throw std::logic_error("metric " + name + " is not finite");
  }
  values_[name] = value;
}

std::vector<std::string> MetricSink::missing() const {
  std::vector<std::string> out;
  for (const auto& d : metric_table()) {
    if (d.end_to_end != traced_ && has_workload(d, workload_) &&
        values_.count(d.name) == 0) {
      out.push_back(d.name);
    }
  }
  return out;
}

void MetricSink::zero_unexercised() {
  for (const auto& d : metric_table()) {
    if (d.end_to_end != traced_ && !has_workload(d, workload_)) {
      values_[d.name] = 0;
    }
  }
}

std::string MetricSink::result_json(bool correct,
                                    unsigned long long attempted,
                                    unsigned long long failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : values_) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number(value) +
           ", \"unit\": \"" + find_def(name)->unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string MetricSink::table() const {
  std::string out;
  char buf[160];
  for (const auto& [name, value] : values_) {
    std::snprintf(buf, sizeof buf, "  %-34s %14.6g %s\n", name.c_str(), value,
                  find_def(name)->unit.c_str());
    out += buf;
  }
  return out;
}

std::string metric_table_json() {
  std::string out = "[";
  bool first = true;
  for (const auto& d : metric_table()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": \"" + d.name + "\", \"unit\": \"" + d.unit +
           "\", \"end_to_end\": " + (d.end_to_end ? "true" : "false") +
           ", \"layer\": \"" + d.layer + "\", \"workloads\": [";
    for (std::size_t i = 0; i < d.workloads.size(); ++i) {
      out += (i ? ", \"" : "\"") + std::string(d.workloads[i]) + "\"";
    }
    out += "]}";
  }
  out += "\n]\n";
  return out;
}

}  // namespace e2ebench
