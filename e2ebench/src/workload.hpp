// Workload interface and the helpers the four workloads share.
//
// Every workload is a closed loop with one client: op() starts only after
// the previous op() returned. A run is
//   setup() x kSetupRepeats  -> setup_s (median)
//   reference()              -> untimed golden pass, checked vs golden.txt
//   op() until the deadline  -> timing samples; outputs checked vs reference
// and, in the traced run, op() alternating with and without a SpanRecorder
// (per-layer metrics; the difference is trace.overhead_pct). Every set-up
// and every op is followed by host speed probes (SpeedTrack), and its
// timings are normalized by the host speed around it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "golden.hpp"
#include "metrics.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "spans.hpp"
#include "vfb/system.hpp"

namespace e2ebench {

/// Named host-time samples of one phase.
class Samples {
 public:
  void add(const std::string& name, double value) {
    series_[name].push_back(value);
  }
  /// Append every sample of `raw` divided by `probe_ms` (see SpeedTrack).
  void add_normalized(const Samples& raw, double probe_ms);
  [[nodiscard]] std::vector<double> get(const std::string& name) const;
  /// Median; throws when `name` has no samples.
  [[nodiscard]] double p50(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> series_;
};

/// Host speed over a run. A probe is the ms that `threads` threads, started
/// together, take on average to run a fixed loop of heap, hash-map and
/// std::function work (the simulator hot path's mix); it is benchmark code,
/// so no change to the program moves it. On shared virtual machines the
/// same code runs up to 1.7x slower for seconds at a time while steal time
/// stays near zero, and the probe slows by the same factor. One probe
/// jitters by several percent, so speed_at() takes the median of every
/// probe within kWindowNs of an instant: a centred median follows a speed
/// step without smearing it. A time divided by speed_at() is in
/// reference-core ms: ms on a core that runs the probe in 1 ms.
class SpeedTrack {
 public:
  static constexpr std::int64_t kWindowNs = 1'000'000'000;

  explicit SpeedTrack(int threads) : threads_(threads) {}
  /// Probe until the probes of this call took at least `min_ms` (at least
  /// one probe).
  void probe(double min_ms = 0);
  /// Median probe ms within kWindowNs of `t_ns`; the nearest probe when
  /// none is that close. Throws before the first probe.
  [[nodiscard]] double speed_at(std::int64_t t_ns) const;
  /// Every probe's ms, in order.
  [[nodiscard]] std::vector<double> values() const;

 private:
  struct Point {
    std::int64_t t_ns;  ///< Midpoint of the probe.
    double ms;
  };
  int threads_;
  std::vector<Point> points_;  ///< In time order.
};

/// Linear-interpolated percentile (p in [0, 100]) of a non-empty vector.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);

/// Copies a trace's record stream (names resolved) so the traced run can
/// replay it through Trace::emit on a fresh Trace and time the trace layer
/// alone. Attach to any number of traces, one at a time.
class TraceTap {
 public:
  /// Subscribe to `trace` (which must outlive its emissions).
  void attach(orte::sim::Trace& trace);
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  /// Median over `repeats` replays of host ns per emitted record.
  [[nodiscard]] double replay_ns_per_record(int repeats) const;

 private:
  struct Event {
    orte::sim::Time when;
    std::uint32_t category;  ///< Index into names_.
    std::uint32_t subject;   ///< Index into names_.
    std::int64_t value;
  };
  std::uint32_t local(std::string_view name);
  std::vector<Event> events_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
};

/// Layer counters of a generated system, read at span boundaries.
struct VfbCounters {
  double events = 0;       ///< Kernel events executed.
  double cancelled = 0;    ///< Effective kernel cancellations.
  double peak_depth = 0;   ///< Peak kernel queue depth.
  double records = 0;      ///< Trace records emitted (all categories).
  double frames = 0;       ///< Frames delivered on the system's bus.
  double rte_writes = 0;   ///< Rte::writes() over every ECU.
  double deliveries = 0;   ///< "rte.deliver" trace records.
  double overflows = 0;    ///< Rte::overflows() over every ECU.
  double routed = 0;       ///< MonitorRegistry::records_routed().
  double delivered = 0;    ///< MonitorRegistry::records_delivered().
  double violations = 0;   ///< HealthReport::total().
  double jobs = 0;         ///< Jobs completed over every task.
  double misses = 0;       ///< Deadline misses over every task.
  double pdus = 0;         ///< COM PDUs sent over every ECU.
};

[[nodiscard]] VfbCounters read_counters(orte::vfb::System& sys,
                                        const orte::sim::Kernel& kernel,
                                        const orte::sim::Trace& trace);
/// Records emitted so far, summed over every category.
[[nodiscard]] double trace_records(const orte::sim::Trace& trace);
/// Attach `after - before` of every counter (and the absolute peak depth)
/// to a span, plus the simulated seconds it covered.
void attach_counters(Scope& span, const VfbCounters& before,
                     const VfbCounters& after, double sim_s);
/// Sum of argument `key` over every span named `name`.
[[nodiscard]] double sum_arg(const SpanRecorder& rec, std::string_view name,
                             std::string_view key);
[[nodiscard]] double max_arg(const SpanRecorder& rec, std::string_view name,
                             std::string_view key);
/// Number of spans named `name`.
[[nodiscard]] std::size_t span_count(const SpanRecorder& rec,
                                     std::string_view name);
/// The sim/os/vfb/bsw/rv per-layer metrics of the "vfb.run_for" spans.
/// Rates are per simulated second; counts are per operation (`ops`).
void vfb_layer_metrics(const SpanRecorder& rec, std::size_t ops,
                       MetricSink& m);

class Workload {
 public:
  static constexpr int kSetupRepeats = 15;

  virtual ~Workload() = default;
  /// Host threads an operation keeps busy; the speed probe runs on as many.
  [[nodiscard]] virtual int threads() const { return 1; }
  /// golden.txt seed column: the seed, or "*" for seed-independent inputs.
  [[nodiscard]] virtual std::string golden_seed() const = 0;
  /// Build the inputs and warm up; replaces any previous inputs.
  virtual void setup() = 0;
  /// Untimed pass over the inputs with a Fingerprint attached; returns the
  /// outputs golden.txt records and keeps what op() compares against.
  /// `tap`, when set, also receives the record stream.
  virtual Outputs reference(TraceTap* tap) = 0;
  /// One closed-loop operation: appends timings (at least
  /// "host_ms_per_sim_s": host time of its simulation per simulated
  /// second), records spans into `rec` when set, checks its simulated
  /// outputs through `check`.
  virtual void op(SpanRecorder* rec, Samples& samples, Checker& check) = 0;
  /// Per-layer metrics from the traced ops' spans, for the layers in the
  /// workload's metric rows. A workload that needs a
  /// differenced variant (rv off) runs it here for `variant_seconds`.
  virtual void per_layer(const SpanRecorder& rec, double variant_seconds,
                         MetricSink& m) = 0;
};

/// The workload `name` over inputs drawn from `seed`; null for unknown.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

std::unique_ptr<Workload> make_bbw();
std::unique_ptr<Workload> make_gen(std::uint64_t seed);
std::unique_ptr<Workload> make_e9b(std::uint64_t seed);
std::unique_ptr<Workload> make_mpsoc();

}  // namespace e2ebench
