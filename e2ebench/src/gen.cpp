// gen_can_build — the build path.
//
// A seeded set of generated multi-supplier CAN compositions (model_gen).
// Each operation is one pass over the set; every model is linted
// (standalone validation::validate), built (vfb::System: strict validation +
// analyze_chains + generation), analysed and simulated for a short horizon.
// Build dominates host time. CAN is event-driven, so TDMA idle-slot work
// does not exist here, and the RTE runs implicit buffers and bounded queues
// rather than bbw's explicit last-is-best path.
#include <optional>

#include "fi/fault.hpp"
#include "model_gen.hpp"
#include "validation/detectability.hpp"
#include "validation/flow_analysis.hpp"
#include "validation/validator.hpp"
#include "workload.hpp"

namespace e2ebench {

namespace {

using namespace orte;

/// Models per set: a multiple of the 9 (suppliers, ECUs) shapes, so every
/// shape appears equally often whatever the seed.
constexpr std::size_t kShapes = 9;
constexpr std::size_t kModels = 16 * kShapes;
constexpr sim::Duration kHorizon = sim::milliseconds(200);
constexpr double kHorizonS = 0.2;

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Representative faults for the standalone detectability analysis: the
/// bus-wide planes plus a crash and a stuck-at per producer.
std::vector<fi::Fault> faults_for(const vfb::Composition& model) {
  std::vector<fi::Fault> faults{
      {.kind = fi::FaultKind::kFrameDrop},
      {.kind = fi::FaultKind::kBabblingIdiot},
  };
  for (const auto& inst : model.instances()) {
    const auto& ports = model.type(inst.type).ports;
    if (ports.front().direction != vfb::PortDirection::kProvided) continue;
    faults.push_back({.kind = fi::FaultKind::kTaskCrash, .target = inst.name});
    faults.push_back({.kind = fi::FaultKind::kStuckAt,
                      .target = inst.name + ".out.v",
                      .value = 1});
  }
  return faults;
}

class Gen final : public Workload {
 public:
  explicit Gen(std::uint64_t seed) : seed_(seed) {}

  std::string golden_seed() const override { return std::to_string(seed_); }

  void setup() override {
    models_ = generate_model_set(seed_, kModels);
    // Warm up on one model of each (suppliers, ECUs) shape.
    for (std::size_t i = 0; i < kShapes; ++i) {
      sim::Kernel kernel;
      sim::Trace trace;
      trace.enable_retention(false);
      (void)run_model(nullptr, Span::kNoParent, i, nullptr, kernel, trace);
    }
  }

  Outputs reference(TraceTap* tap) override {
    expected_.clear();
    std::string diagnostics;
    std::uint64_t fnv = fnv1a("");
    std::uint64_t frames = 0;
    std::uint64_t violations = 0;
    std::uint64_t overflows = 0;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      sim::Kernel kernel;
      sim::Trace trace;
      trace.enable_retention(false);
      const Fingerprint fp(trace);
      if (tap != nullptr) tap->attach(trace);
      Outputs out =
          run_model(nullptr, Span::kNoParent, i, nullptr, kernel, trace);
      diagnostics += (i ? "," : "") + out.at("diagnostics");
      fnv = fnv1a(hex(fp.value()), fnv);
      frames += std::stoull(out.at("frames.can"));
      violations += std::stoull(out.at("rv.violations"));
      overflows += std::stoull(out.at("rte.overflows"));
      expected_.push_back(std::move(out));
    }
    return {{"diagnostics", diagnostics},
            {"fnv", hex(fnv)},
            {"frames.can", std::to_string(frames)},
            {"rv.violations", std::to_string(violations)},
            {"rte.overflows", std::to_string(overflows)}};
  }

  void op(SpanRecorder* rec, Samples& samples, Checker& check) override {
    Scope pass(rec, "gen.pass");
    Timings t;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      const std::string what = "gen model " + models_[i].name;
      try {
        sim::Kernel kernel;
        sim::Trace trace;
        trace.enable_retention(false);
        check.check(what, expected_.at(i),
                    run_model(rec, pass.id(), i, &t, kernel, trace));
      } catch (const std::exception& e) {
        check.fail(what, e.what());
      }
    }
    const double n = static_cast<double>(models_.size());
    samples.add("lint_ms", ms(t.lint) / n);
    samples.add("build_ms", ms(t.build) / n);
    samples.add("host_ms_per_sim_s", ms(t.run) / (n * kHorizonS));
  }

  void per_layer(const SpanRecorder& rec, double /*variant_seconds*/,
                 MetricSink& m) override {
    const std::size_t passes = span_count(rec, "gen.pass");
    vfb_layer_metrics(rec, passes, m);
    const double sim_s = sum_arg(rec, "vfb.run_for", "sim_s");
    m.set("can.frames_per_sim_s",
          sum_arg(rec, "vfb.run_for", "frames") / sim_s);
    m.set("can.utilization",
          sum_arg(rec, "vfb.run_for", "bus_busy_s") / sim_s);
    m.set("can.queueing_delay_p50_us", median(queueing_us_));
    m.set("vfb.analyze_ms", median(rec.durations_ms("vfb.analyze")));
    m.set("validation.validate_ms",
          median(rec.durations_ms("validation.validate")));
    m.set("validation.analyze_chains_ms",
          median(rec.durations_ms("validation.analyze_chains")));
    m.set("validation.detectability_ms",
          median(rec.durations_ms("validation.analyze_detectability")));
    m.set("validation.diagnostics",
          sum_arg(rec, "validation.validate", "diagnostics") /
              static_cast<double>(passes));
    m.set("vfb.generate_self_ms", median(generate_self_ms(rec)));
  }

 private:
  struct Timings {
    std::int64_t lint = 0;
    std::int64_t build = 0;
    std::int64_t run = 0;
  };

  /// Per model: System construction minus the validate and analyze_chains
  /// calls it repeats internally, measured on the same model.
  static std::vector<double> generate_self_ms(const SpanRecorder& rec) {
    struct Parts {
      double system = 0, validate = 0, chains = 0;
    };
    std::map<std::size_t, Parts> by_model;
    for (const Span& s : rec.spans()) {
      if (s.name == "vfb.System") by_model[s.parent].system = s.ms();
      if (s.name == "validation.validate") by_model[s.parent].validate = s.ms();
      if (s.name == "validation.analyze_chains") {
        by_model[s.parent].chains = s.ms();
      }
    }
    std::vector<double> out;
    for (const auto& [id, p] : by_model) {
      out.push_back(p.system - p.validate - p.chains);
    }
    return out;
  }

  Outputs run_model(SpanRecorder* rec, std::size_t parent, std::size_t index,
                    Timings* t, sim::Kernel& kernel, sim::Trace& trace) {
    const GeneratedModel& g = models_[index];
    Scope model(rec, "gen.model", parent);
    const std::int64_t t0 = now_ns();
    validation::Diagnostics diags;
    {
      Scope s(rec, "validation.validate", model.id());
      diags = validation::validate(g.model, g.plan);
      s.arg("diagnostics", static_cast<double>(diags.size()));
    }
    const std::int64_t t1 = now_ns();
    if (diags.has_errors()) {
      throw std::runtime_error("generated model does not validate:\n" +
                               diags.render());
    }
    if (rec != nullptr) {
      {
        Scope s(rec, "validation.analyze_chains", model.id());
        const auto chains = validation::analyze_chains(
            g.model, g.plan, g.model.bound_contracts());
        s.arg("chains", static_cast<double>(chains.bounds.size()));
      }
      {
        Scope s(rec, "validation.analyze_detectability", model.id());
        const auto det = validation::analyze_detectability(
            g.model, g.plan, g.model.bound_contracts(), faults_for(g.model));
        s.arg("verdicts", static_cast<double>(det.verdicts.size()));
      }
    }
    const std::int64_t t2 = now_ns();
    std::optional<vfb::System> sys;
    {
      Scope s(rec, "vfb.System", model.id());
      sys.emplace(kernel, trace, g.model, g.plan);
    }
    const std::int64_t t3 = now_ns();
    {
      Scope s(rec, "vfb.analyze", model.id());
      s.arg("schedulable", sys->analyze().schedulable ? 1 : 0);
    }
    {
      Scope s(rec, "vfb.start", model.id());
      sys->start();
    }
    const std::int64_t t4 = now_ns();
    {
      Scope s(rec, "vfb.run_for", model.id());
      const VfbCounters before =
          rec ? read_counters(*sys, kernel, trace) : VfbCounters{};
      sys->run_for(kHorizon);
      if (rec != nullptr) {
        attach_counters(s, before, read_counters(*sys, kernel, trace),
                        kHorizonS);
        const net::BusStats& bus = sys->can_bus()->stats();
        s.arg("bus_busy_s", static_cast<double>(bus.busy_time()) / 1e9);
        const auto& delays = bus.queueing_delay().samples();
        queueing_us_.insert(queueing_us_.end(), delays.begin(), delays.end());
      }
    }
    const std::int64_t t5 = now_ns();
    if (t != nullptr) {
      t->lint += t1 - t0;
      t->build += t3 - t2;
      t->run += t5 - t4;
    }
    std::uint64_t overflows = 0;
    for (const auto& ecu : sys->ecu_names()) {
      overflows += sys->rte(ecu).overflows();
    }
    return {
        {"diagnostics", std::to_string(diags.size())},
        {"frames.can",
         std::to_string(sys->can_bus()->stats().frames_delivered())},
        {"rv.violations", std::to_string(sys->monitors()->health().total())},
        {"rte.overflows", std::to_string(overflows)},
        {"rte.deliver", std::to_string(trace.count("rte.deliver"))},
    };
  }

  std::uint64_t seed_;
  std::vector<GeneratedModel> models_;
  std::vector<Outputs> expected_;  ///< Per model, from reference().
  std::vector<double> queueing_us_;  ///< CAN queueing delays, traced ops.
};

}  // namespace

std::unique_ptr<Workload> make_gen(std::uint64_t seed) {
  return std::make_unique<Gen>(seed);
}

}  // namespace e2ebench
