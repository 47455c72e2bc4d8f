// Self-tests of the benchmark's own machinery (run by
// `python3 e2ebench/run.py --selftest`, which then also checks the metrics
// each workload actually emits against the table and BENCHMARK.json).
#include <cstdio>
#include <regex>
#include <stdexcept>
#include <string>

#include "golden.hpp"
#include "metrics.hpp"
#include "model_gen.hpp"
#include "validation/validator.hpp"
#include "vfb/system.hpp"
#include "workload.hpp"

namespace {

using namespace e2ebench;

int failures = 0;
std::string scratch_path;  ///< Next to the self-test binary.

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void generator_is_deterministic() {
  for (const std::uint64_t seed : {1ULL, 7ULL, 123456789ULL}) {
    for (std::size_t i = 0; i < 9; ++i) {
      const GeneratedModel a = generate_model(seed, i);
      const GeneratedModel b = generate_model(seed, i);
      expect(a.description == b.description,
             "same (seed, index) renders byte-identical models");
    }
  }
  expect(generate_model(1, 0).description != generate_model(2, 0).description,
         "different seeds draw different models");
}

void generated_models_validate_clean() {
  std::size_t models = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const GeneratedModel& g : generate_model_set(seed, 36)) {
      const auto report = orte::validation::validate(g.model, g.plan);
      expect(!report.has_errors(),
             "seed " + std::to_string(seed) + " " + g.name +
                 " validates without errors:\n" + report.render());
      ++models;
    }
  }
  expect(models == 360, "every model of ten sets was validated");
}

/// Fingerprint of one 200 ms lifetime of a System built from `g`.
std::uint64_t lifetime_fingerprint(const GeneratedModel& g) {
  orte::sim::Kernel kernel;
  orte::sim::Trace trace;
  trace.enable_retention(false);
  const Fingerprint fp(trace);
  orte::vfb::System sys(kernel, trace, g.model, g.plan);
  sys.start();
  sys.run_for(orte::sim::milliseconds(200));
  return fp.value();
}

void generated_models_carry_no_state() {
  // Behaviour closures are copied into every System; a value stream kept
  // in them would make the second System write other values than the first.
  for (std::size_t i = 0; i < 9; ++i) {
    const GeneratedModel g = generate_model(3, i);
    expect(lifetime_fingerprint(g) == lifetime_fingerprint(g),
           "two Systems of " + g.name + " emit identical traces");
  }
}

void reference_passes_repeat_exactly() {
  // No workload may carry simulated state from one pass into the next:
  // the golden check relies on every pass writing the same outputs.
  for (const auto name : workload_names()) {
    auto w = make_workload(name, 1);
    w->setup();
    const Outputs first = w->reference(nullptr);
    expect(w->reference(nullptr) == first,
           std::string(name) + ": a second reference pass is identical");
  }
}

void golden_check_flags_perturbed_outputs() {
  // Fingerprints: identical streams agree, one changed value does not.
  const auto fingerprint = [](std::int64_t last_value) {
    orte::sim::Trace trace;
    trace.enable_retention(false);
    const Fingerprint fp(trace);
    trace.emit(10, "rte.write", "p.out.v", 1);
    trace.emit(20, "rte.deliver", "k.in.v", 1);
    trace.emit(30, "rte.write", "p.out.v", last_value);
    return fp.value();
  };
  expect(fingerprint(2) == fingerprint(2), "fingerprint is deterministic");
  expect(fingerprint(2) != fingerprint(3), "fingerprint sees a value change");

  // A real workload's reference outputs, with one simulated output moved:
  // the check counts one failed operation and does not throw.
  auto w = make_workload(kMpsoc, 1);
  w->setup();
  const Outputs expected = w->reference(nullptr);
  Outputs perturbed = expected;
  perturbed["noc.delivered"] =
      std::to_string(std::stoull(expected.at("noc.delivered")) + 1);
  Checker check;
  check.check("unchanged", expected, expected);
  check.check("perturbed", expected, perturbed);
  expect(check.attempted() == 2 && check.failed() == 1,
         "golden check flags exactly the perturbed operation");

  // golden.txt round trip.
  GoldenFile g;
  g.set("w", "*", expected);
  g.save(scratch_path);
  const GoldenFile loaded = GoldenFile::load(scratch_path);
  expect(loaded.find("w", "*") != nullptr && *loaded.find("w", "*") == expected,
         "golden file round-trips");
  expect(loaded.find("w", "1") == nullptr, "unknown entries are absent");
}

void metric_rows_are_enforced() {
  const std::regex name_re("[A-Za-z0-9_.-]+");
  for (const MetricDef& d : metric_table()) {
    expect(std::regex_match(d.name, name_re), "metric name " + d.name);
    expect(!d.workloads.empty(), d.name + " belongs to some workload");
    if (d.end_to_end) {
      expect(d.workloads == workload_names(),
             d.name + " (end-to-end) is measured on every workload");
    }
  }
  MetricSink traced(kBbw, true);
  bool threw = false;
  try {
    traced.set("fi.factory_us_p50", 1.0);  // e9b_campaign only
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "a metric outside its workload row is refused");
  traced.zero_unexercised();
  expect(traced.values().at("fi.factory_us_p50") == 0,
         "a layer the workload does not run reads 0");
  expect(traced.values().count("flexray.frames_per_sim_s") == 0,
         "zero_unexercised() leaves the workload's own rows unset");
  MetricSink untraced(kBbw, false);
  threw = false;
  try {
    untraced.set("sim.kernel.events_per_sim_s", 1.0);  // traced run only
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "a per-layer metric is refused in the untraced run");
  untraced.set("host_ms_per_sim_s_p50", 1.0);
  expect(untraced.missing().size() == 3, "missing() lists unset row metrics");
}

}  // namespace

int main(int /*argc*/, char** argv) {
  scratch_path = std::string(argv[0]) + ".golden.txt";
  try {
    generator_is_deterministic();
    generated_models_validate_clean();
    generated_models_carry_no_state();
    reference_passes_repeat_exactly();
    golden_check_flags_perturbed_outputs();
    metric_rows_are_enforced();
  } catch (const std::exception& e) {
    ++failures;
    std::printf("FAIL exception: %s\n", e.what());
  }
  std::printf("selftest (C++): %s, %d failure(s)\n",
              failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
