// e2ebench: end-to-end and per-layer benchmark of the OpenRTE pipeline
// (model -> validate -> generate -> simulate -> score).
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--golden <golden.txt>] [--trace-out <file.json>]
//   e2ebench --write-golden <golden.txt>
//   e2ebench --list-metrics
//
// The last line of stdout is the result object; the lines above it repeat
// every metric by name and unit, with the sample counts behind them.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "metrics.hpp"
#include "workload.hpp"

namespace e2ebench {
namespace {

/// Input sets of the seed-dependent workloads: --seed n draws the inputs of
/// set n % kInputSets, and golden.txt holds the outputs of every set, so
/// each run is checked against committed values whatever its seed.
constexpr std::uint64_t kInputSets = 100;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string golden = "e2ebench/golden.txt";
  std::string trace_out;
  std::string write_golden;
  bool list_metrics = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.traced = value == "1";
    } else if (flag == "--golden") {
      a.golden = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--write-golden") {
      a.write_golden = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// VmHWM of this process image. getrusage's ru_maxrss is not used: Linux
/// carries it across execve, so it would report the launcher's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Closed loop: op() after op() until `seconds` have passed (at least one
/// op, or one pair); each op also gives an "op_ms" sample. Speed probes
/// follow every op and take about 2 % of the run; once the loop ends, each
/// op's samples are normalized by the host speed around the op's midpoint.
/// With `rec` set, ops alternate between untraced (into `plain`) and traced
/// (into `traced`), so both see the same host state and their difference is
/// the tracing overhead rather than host drift.
void measure(Workload& w, double seconds, Samples& plain, Checker& check,
             SpeedTrack& speed, SpanRecorder* rec = nullptr,
             Samples* traced = nullptr) {
  struct Op {
    Samples raw;
    std::int64_t mid_ns = 0;
    bool traced = false;
  };
  std::vector<Op> ops;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  speed.probe();
  bool traced_turn = false;
  do {
    Op op;
    op.traced = traced_turn;
    const std::int64_t t0 = now_ns();
    try {
      w.op(traced_turn ? rec : nullptr, op.raw, check);
    } catch (const std::exception& e) {
      check.fail("operation", e.what());
    }
    const std::int64_t t1 = now_ns();
    op.raw.add("op_ms", static_cast<double>(t1 - t0) / 1e6);
    op.mid_ns = t0 + (t1 - t0) / 2;
    ops.push_back(std::move(op));
    speed.probe(0.02 * static_cast<double>(t1 - t0) / 1e6);
    traced_turn = rec != nullptr && !traced_turn;
  } while (traced_turn || now_ns() < deadline);
  for (const Op& op : ops) {
    (op.traced ? *traced : plain)
        .add_normalized(op.raw, speed.speed_at(op.mid_ns));
  }
}

/// Sample count, median and the highest of p99/p90/p75 that still has at
/// least ten samples beyond it.
void print_samples(const char* phase, const Samples& s,
                   const std::vector<std::string>& names) {
  for (const auto& n : names) {
    const std::size_t count = s.count(n);
    if (count == 0) continue;
    std::printf("  %-9s %-20s n=%-5zu p50=%-12.6g", phase, n.c_str(), count,
                s.p50(n));
    for (const int p : {99, 90, 75}) {
      if (static_cast<double>(count) * (100 - p) / 100.0 >= 10) {
        std::printf(" p%d=%.6g", p, percentile(s.get(n), p));
        break;
      }
    }
    std::printf("\n");
  }
}

int run(const Args& a) {
  const std::uint64_t input_set = a.seed % kInputSets;
  const std::unique_ptr<Workload> w = make_workload(a.workload, input_set);
  if (!w) throw std::invalid_argument("unknown workload '" + a.workload + "'");
  const GoldenFile golden = GoldenFile::load(a.golden);

  // Set-up time in reference-core seconds, normalized like the ops.
  SpeedTrack speed(w->threads());
  speed.probe();
  std::vector<std::pair<std::int64_t, double>> setups;  // (mid ns, s)
  for (int i = 0; i < Workload::kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    w->setup();
    const std::int64_t t1 = now_ns();
    setups.emplace_back(t0 + (t1 - t0) / 2, static_cast<double>(t1 - t0) / 1e9);
    speed.probe();
  }
  std::vector<double> setup_s;
  for (const auto& [mid, s] : setups) {
    setup_s.push_back(s / speed.speed_at(mid));
  }

  Checker check;
  Outputs reference;
  try {
    const Outputs out = w->reference(nullptr);
    reference = out;
    const std::string what = "golden " + a.workload + " " + w->golden_seed();
    if (const Outputs* g = golden.find(a.workload, w->golden_seed())) {
      check.check(what, *g, out);
    } else {
      check.fail(what, "no entry in " + a.golden);
    }
  } catch (const std::exception& e) {
    check.fail("reference pass", e.what());
  }

  const std::vector<std::string> sample_names{
      "op_ms", "host_ms_per_sim_s", "build_ms", "lint_ms"};
  std::printf("e2ebench %s seed=%llu (input set %llu) trace=%d seconds=%g\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(input_set), a.traced ? 1 : 0,
              a.seconds);
  // The deterministic counts behind the timings: drift in a timing with
  // these unchanged is host noise.
  std::printf("  reference outputs:");
  for (const auto& [k, v] : reference) {
    std::printf(" %s=%s", k.c_str(), v.c_str());
  }
  std::printf("\n");
  MetricSink m(a.workload, a.traced);
  if (!a.traced) {
    Samples s;
    measure(*w, a.seconds, s, check, speed);
    print_samples("untraced", s, sample_names);
    m.set("setup_s", median(setup_s));
    m.set("op_ms_p50", s.p50("op_ms"));
    m.set("host_ms_per_sim_s_p50", s.p50("host_ms_per_sim_s"));
    m.set("peak_rss_mb", peak_rss_mb());
  } else {
    // Alternating untraced/traced ops for the whole run, or for two thirds
    // of it when the workload also runs a differenced variant (rv off).
    const double variant =
        in_row("rv.host_share", a.workload) ? a.seconds / 3 : 0;
    Samples untraced;
    Samples traced;
    SpanRecorder rec;
    measure(*w, a.seconds - variant, untraced, check, speed, &rec, &traced);
    print_samples("untraced", untraced, sample_names);
    print_samples("traced", traced, sample_names);
    w->per_layer(rec, variant, m);
    m.set("trace.overhead_pct",
          100.0 * (traced.p50("host_ms_per_sim_s") /
                       untraced.p50("host_ms_per_sim_s") -
                   1.0));
    if (in_row("sim.trace.host_ns_per_record", a.workload)) {
      TraceTap tap;
      (void)w->reference(&tap);
      m.set("sim.trace.host_ns_per_record", tap.replay_ns_per_record(5));
    }
    if (!a.trace_out.empty()) {
      std::ofstream out(a.trace_out);
      out << rec.to_chrome_json();
      if (!out) throw std::runtime_error("cannot write " + a.trace_out);
      std::printf("  spans: %zu written to %s\n", rec.spans().size(),
                  a.trace_out.c_str());
    }
  }
  // Raw host speed over the run: a wide range here is what normalizing
  // by the probe took out of the timings above.
  const std::vector<double> probes = speed.values();
  std::printf("  speed probe (%d thread(s)): n=%zu p50=%.4g ms min=%.4g "
              "max=%.4g\n",
              w->threads(), probes.size(), median(probes),
              *std::min_element(probes.begin(), probes.end()),
              *std::max_element(probes.begin(), probes.end()));
  const auto missing = m.missing();
  if (!missing.empty()) {
    throw std::logic_error("metric not produced: " + missing.front());
  }
  m.zero_unexercised();
  std::printf("%s", m.table().c_str());
  std::printf("  operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(check.attempted()),
              static_cast<unsigned long long>(check.failed()));
  std::printf("%s\n", m.result_json(check.failed() == 0, check.attempted(),
                                    check.failed())
                          .c_str());
  return 0;
}

int write_golden(const std::string& path) {
  GoldenFile g;
  for (const auto name : workload_names()) {
    for (std::uint64_t seed = 0; seed < kInputSets; ++seed) {
      const auto w = make_workload(name, seed);
      w->setup();
      g.set(std::string(name), w->golden_seed(), w->reference(nullptr));
      if (w->golden_seed() == "*") break;  // seed-independent input
    }
    std::fprintf(stderr, "golden: %s done\n", std::string(name).c_str());
  }
  g.save(path);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  try {
    const Args a = parse(argc, argv);
    if (a.list_metrics) {
      std::printf("%s", metric_table_json().c_str());
      return 0;
    }
    if (!a.write_golden.empty()) return write_golden(a.write_golden);
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
