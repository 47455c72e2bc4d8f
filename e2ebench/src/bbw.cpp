// bbw_flexray_sim — the run-time hot path.
//
// fi::workloads::brake_by_wire(alive_supervision = true), generated afresh
// for every lifetime (its pedal sensor keeps its trajectory position in the
// bundle, so a reused bundle would write other values each lifetime) and
// simulated over a long horizon with trace retention off.
// Build cost is ~1 % of a lifetime and sits outside the timed interval, so
// host time is kernel dispatch, the FlexRay static-slot loop (mostly idle
// slots), explicit RTE access, trace emission, rv dispatch and the
// watchdog. The input does not depend on the seed. Set-up warms up with one
// 1 s lifetime (a fifth of a timed one).
#include <optional>

#include "fi/workloads.hpp"
#include "workload.hpp"

namespace e2ebench {

namespace {

using namespace orte;

constexpr sim::Duration kHorizon = sim::seconds(5);
constexpr sim::Duration kWarmUp = sim::seconds(1);

class Bbw final : public Workload {
 public:
  std::string golden_seed() const override { return "*"; }

  void setup() override { (void)lifetime(nullptr, nullptr, true, kWarmUp); }

  Outputs reference(TraceTap* tap) override {
    const fi::ModelBundle bundle = make_bundle(true);
    sim::Kernel kernel;
    sim::Trace trace;
    trace.enable_retention(false);
    const Fingerprint fp(trace);
    if (tap != nullptr) tap->attach(trace);
    expected_ = run(nullptr, nullptr, kernel, trace, bundle, kHorizon);
    Outputs out = expected_;
    out["fnv"] = hex(fp.value());
    out["trace.records"] = std::to_string(fp.records());
    return out;
  }

  void op(SpanRecorder* rec, Samples& samples, Checker& check) override {
    check.check("bbw lifetime", expected_, lifetime(rec, &samples, true));
  }

  void per_layer(const SpanRecorder& rec, double variant_seconds,
                 MetricSink& m) override {
    vfb_layer_metrics(rec, span_count(rec, "bbw.lifetime"), m);
    const double sim_s = sum_arg(rec, "vfb.run_for", "sim_s");
    const double frames = sum_arg(rec, "vfb.run_for", "frames");
    m.set("flexray.frames_per_sim_s", frames / sim_s);
    m.set("flexray.slot_useful_ratio",
          frames / sum_arg(rec, "vfb.run_for", "static_slots"));
    m.set("rv.host_share", rv_host_share(variant_seconds));
  }

 private:
  static fi::ModelBundle make_bundle(bool runtime_verification) {
    fi::ModelBundle b = fi::workloads::brake_by_wire(/*alive_supervision=*/true);
    b.plan.runtime_verification = runtime_verification;
    return b;
  }

  /// One lifetime of a fresh bundle on a fresh kernel/trace; returns its
  /// outputs.
  static Outputs lifetime(SpanRecorder* rec, Samples* samples,
                          bool runtime_verification,
                          sim::Duration horizon = kHorizon) {
    const fi::ModelBundle bundle = make_bundle(runtime_verification);
    sim::Kernel kernel;
    sim::Trace trace;
    trace.enable_retention(false);
    return run(rec, samples, kernel, trace, bundle, horizon);
  }

  static Outputs run(SpanRecorder* rec, Samples* samples, sim::Kernel& kernel,
                     sim::Trace& trace, const fi::ModelBundle& bundle,
                     sim::Duration horizon) {
    const double horizon_s = static_cast<double>(horizon) / 1e9;
    Scope life(rec, "bbw.lifetime");
    std::optional<vfb::System> sys;
    {
      Scope s(rec, "vfb.System", life.id());
      sys.emplace(kernel, trace, bundle.model, bundle.plan);
    }
    {
      Scope s(rec, "vfb.start", life.id());
      sys->start();
    }
    const std::int64_t t0 = now_ns();
    {
      Scope s(rec, "vfb.run_for", life.id());
      const VfbCounters before =
          rec ? read_counters(*sys, kernel, trace) : VfbCounters{};
      sys->run_for(horizon);
      if (rec != nullptr) {
        attach_counters(s, before, read_counters(*sys, kernel, trace),
                        horizon_s);
        const flexray::FlexRayBus& bus = *sys->flexray_bus();
        s.arg("static_slots", static_cast<double>(
                                  bus.cycles() * bus.config().static_slots));
      }
    }
    const std::int64_t t1 = now_ns();
    if (samples != nullptr) {
      samples->add("host_ms_per_sim_s",
                   static_cast<double>(t1 - t0) / 1e6 / horizon_s);
    }
    Outputs out;
    out["frames.flexray"] =
        std::to_string(sys->flexray_bus()->stats().frames_delivered());
    const rv::MonitorRegistry* reg = sys->monitors();  // null with rv off
    out["rv.violations"] = std::to_string(reg ? reg->health().total() : 0);
    out["rte.deliver"] = std::to_string(trace.count("rte.deliver"));
    out["rte.write"] = std::to_string(trace.count("rte.write"));
    return out;
  }

  /// Share of host time the rv layer costs: lifetimes with and without
  /// runtime verification, interleaved so host drift cancels.
  double rv_host_share(double seconds) {
    Samples on_s;
    Samples off_s;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    do {
      (void)lifetime(nullptr, &on_s, true);
      (void)lifetime(nullptr, &off_s, false);
    } while (now_ns() < deadline);
    const double on = on_s.p50("host_ms_per_sim_s");
    return (on - off_s.p50("host_ms_per_sim_s")) / on;
  }

  Outputs expected_;
};

}  // namespace

std::unique_ptr<Workload> make_bbw() { return std::make_unique<Bbw>(); }

}  // namespace e2ebench
