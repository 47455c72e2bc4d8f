// The benchmark's metric table: every metric's name, unit, kind, layer and
// the workloads that exercise it. Every run reports every metric of its
// kind (end-to-end untraced, per-layer traced). End-to-end metrics exist on
// every workload. A per-layer metric may only be measured on the workloads
// of its row (MetricSink enforces it) and reads 0 on the others, so a
// workload never reports timer noise for a layer it does not exercise.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

inline constexpr std::string_view kBbw = "bbw_flexray_sim";
inline constexpr std::string_view kGen = "gen_can_build";
inline constexpr std::string_view kE9b = "e9b_campaign";
inline constexpr std::string_view kMpsoc = "mpsoc_noc_sim";

struct MetricDef {
  std::string name;
  std::string unit;
  bool end_to_end = false;  ///< Untraced run; else the traced run.
  std::string layer;
  std::vector<std::string_view> workloads;  ///< Those that exercise it.
};

[[nodiscard]] const std::vector<MetricDef>& metric_table();
[[nodiscard]] const std::vector<std::string_view>& workload_names();
/// True when `metric` is in the table and belongs to `workload`'s row.
[[nodiscard]] bool in_row(std::string_view metric, std::string_view workload);

/// Collects one run's metrics and renders the final result line.
class MetricSink {
 public:
  MetricSink(std::string_view workload, bool traced)
      : workload_(workload), traced_(traced) {}
  /// Record a metric; throws std::logic_error for a name outside the table,
  /// of the other kind (end-to-end vs per-layer), or outside its workloads.
  void set(const std::string& name, double value);
  /// Names of row metrics this run should have measured but did not.
  [[nodiscard]] std::vector<std::string> missing() const;
  /// Set every metric of this run's kind outside the workload's rows to 0:
  /// the workload does not run that layer.
  void zero_unexercised();
  [[nodiscard]] const std::map<std::string, double>& values() const {
    return values_;
  }
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  [[nodiscard]] std::string result_json(bool correct,
                                        unsigned long long attempted,
                                        unsigned long long failed) const;
  /// Human-readable "name = value unit" lines.
  [[nodiscard]] std::string table() const;

 private:
  std::string_view workload_;
  bool traced_;
  std::map<std::string, double> values_;
};

/// The metric table as JSON (for the self-test and BENCHMARK.json checks).
[[nodiscard]] std::string metric_table_json();

}  // namespace e2ebench
