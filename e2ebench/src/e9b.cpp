// e9b_campaign — campaign throughput.
//
// fi::Campaign over brake_by_wire(alive_supervision = true) x
// standard_faults(), 1 s horizons, on 2 worker threads. Every scenario pays
// for a build, a short simulation with fault hooks live, and scoring, so
// work moved from run time into build time shows here as a loss even when
// it wins on bbw_flexray_sim. The seed is the campaign seed: it drives the
// per-scenario fault RNG streams.
#include <algorithm>
#include <mutex>
#include <thread>

#include "fi/campaign.hpp"
#include "fi/workloads.hpp"
#include "workload.hpp"

namespace e2ebench {

namespace {

using namespace orte;

constexpr std::size_t kReplicates = 25;  ///< 1 + 8 x 25 = 201 scenarios.
constexpr std::size_t kThreads = 2;
constexpr sim::Duration kHorizon = sim::seconds(1);
constexpr double kHorizonS = 1.0;

std::string matrix_text(const fi::Report& r) {
  std::string out;
  for (const auto& [cls, st] : r.matrix) {
    out += (out.empty() ? "" : ";") + cls + ":" + std::to_string(st.total) +
           "/" + std::to_string(st.contained) + "/" +
           std::to_string(st.leaked) + "/" + std::to_string(st.missed) + "/" +
           std::to_string(st.spurious);
  }
  return out;
}

/// Times every factory call and files it under the calling worker, so the
/// traced run sees per-thread scenario boundaries from outside the runner.
class FactoryProbe {
 public:
  struct Call {
    std::int64_t start = 0;
    std::int64_t end = 0;
    int worker = 0;
  };

  fi::ModelBundle operator()() {
    const std::int64_t t0 = now_ns();
    fi::ModelBundle bundle = fi::workloads::brake_by_wire(true);
    const std::int64_t t1 = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    const auto [it, fresh] = workers_.try_emplace(
        std::this_thread::get_id(), static_cast<int>(workers_.size()) + 1);
    calls_.push_back({t0, t1, it->second});
    return bundle;
  }
  /// Calls since the last take(); worker numbering restarts.
  std::vector<Call> take() {
    const std::lock_guard<std::mutex> lock(mu_);
    workers_.clear();
    return std::exchange(calls_, {});
  }

 private:
  std::mutex mu_;  ///< Guards calls_ and workers_.
  std::vector<Call> calls_;
  std::map<std::thread::id, int> workers_;
};

class E9b final : public Workload {
 public:
  explicit E9b(std::uint64_t seed) : seed_(seed) {}

  int threads() const override { return static_cast<int>(kThreads); }
  std::string golden_seed() const override { return std::to_string(seed_); }

  void setup() override {
    plain_ = make_campaign(kReplicates, [] {
      return fi::workloads::brake_by_wire(true);
    });
    probed_ = make_campaign(kReplicates, [this] { return probe_(); });
    // Warm-up: a one-replicate campaign over every fault kind.
    (void)make_campaign(1, [] { return fi::workloads::brake_by_wire(true); })
        ->run();
  }

  Outputs reference(TraceTap* /*tap*/) override {
    const fi::Report report = plain_->run();
    // Holds for every seed, golden entry or not: the fault-free prefix and
    // the baseline never fire a monitor.
    if (report.count(fi::Outcome::kSpurious) != 0) {
      throw std::runtime_error("campaign scored spurious outcomes");
    }
    expected_ = outputs(report);
    return expected_;
  }

  void op(SpanRecorder* rec, Samples& samples, Checker& check) override {
    const fi::Campaign& campaign = rec ? *probed_ : *plain_;
    const std::int64_t t0 = now_ns();
    fi::Report report;
    std::size_t run_id = Span::kNoParent;
    {
      Scope s(rec, "fi.Campaign.run");
      run_id = s.id();
      report = campaign.run();
      s.arg("scenarios", static_cast<double>(report.scenarios.size()));
    }
    const std::int64_t t1 = now_ns();
    // Every scenario simulates one horizon, so this is the inverse of
    // campaign throughput.
    samples.add("host_ms_per_sim_s",
                static_cast<double>(t1 - t0) / 1e6 /
                    (static_cast<double>(report.scenarios.size()) *
                     kHorizonS));
    if (rec != nullptr) {
      record_scenarios(*rec, run_id, t1);
      last_ = report;
    }
    check.check("e9b campaign", expected_, outputs(report));
  }

  void per_layer(const SpanRecorder& rec, double /*variant_seconds*/,
                 MetricSink& m) override {
    m.set("fi.factory_us_p50",
          median(rec.durations_ms("fi.factory")) * 1e3);
    const auto scenario = rec.durations_ms("fi.scenario");
    m.set("fi.scenario_ms_p50", percentile(scenario, 50));
    m.set("fi.scenario_ms_p90", percentile(scenario, 90));
    m.set("fi.thread_imbalance", median(imbalance_));
    m.set("fi.outcome.contained",
          static_cast<double>(last_.count(fi::Outcome::kContained)));
    m.set("fi.outcome.leaked",
          static_cast<double>(last_.count(fi::Outcome::kDetected)));
    m.set("fi.outcome.missed",
          static_cast<double>(last_.count(fi::Outcome::kMissed)));
    m.set("fi.outcome.spurious",
          static_cast<double>(last_.count(fi::Outcome::kSpurious)));
  }

 private:
  std::unique_ptr<fi::Campaign> make_campaign(std::size_t replicates,
                                              fi::ModelFactory factory) const {
    fi::CampaignConfig cfg;
    cfg.seed = seed_;
    cfg.replicates = replicates;
    cfg.horizon = kHorizon;
    cfg.threads = kThreads;
    auto c = std::make_unique<fi::Campaign>(std::move(factory), cfg);
    fi::workloads::add_standard_faults(*c);
    return c;
  }

  /// The coverage matrix plus a hash over every scenario's scored evidence
  /// (outcome, detectors, violation count and first-reaction instants),
  /// which the fault RNG streams — and so the seed — drive.
  static Outputs outputs(const fi::Report& r) {
    std::string evidence;
    for (const auto& sc : r.scenarios) {
      evidence += std::to_string(static_cast<int>(sc.outcome)) + ' ' +
                  std::to_string(sc.detectors) + ' ' +
                  std::to_string(sc.violations) + ' ' +
                  std::to_string(sc.first_violation) + ' ' +
                  std::to_string(sc.first_dtc) + ' ' +
                  std::to_string(sc.first_degrade) + ';';
    }
    return {{"matrix", matrix_text(r)},
            {"scenarios.fnv", hex(fnv1a(evidence))},
            {"spurious", std::to_string(r.count(fi::Outcome::kSpurious))},
            {"spurious_baselines", std::to_string(r.spurious_baselines)}};
  }

  /// Turn the run's factory calls into spans: each call, and the scenario
  /// it starts — from the call to the same worker's next call (or the end
  /// of the run for its last one).
  void record_scenarios(SpanRecorder& rec, std::size_t run_id,
                        std::int64_t run_end) {
    std::vector<FactoryProbe::Call> calls = probe_.take();
    std::map<int, std::vector<FactoryProbe::Call>> by_worker;
    for (const auto& c : calls) by_worker[c.worker].push_back(c);
    std::size_t most = 0;
    std::size_t least = SIZE_MAX;
    for (auto& [worker, list] : by_worker) {
      std::sort(list.begin(), list.end(),
                [](const auto& a, const auto& b) { return a.start < b.start; });
      for (std::size_t i = 0; i < list.size(); ++i) {
        const std::int64_t end =
            i + 1 < list.size() ? list[i + 1].start : run_end;
        rec.add({"fi.factory", list[i].start, list[i].end, 0, run_id, worker});
        rec.add({"fi.scenario", list[i].start, end, 0, run_id, worker});
      }
      most = std::max(most, list.size());
      least = std::min(least, list.size());
    }
    // A worker that started no scenario counts as one, keeping it finite.
    if (by_worker.size() < kThreads) least = 0;
    imbalance_.push_back(static_cast<double>(most) /
                         static_cast<double>(std::max<std::size_t>(least, 1)));
  }

  std::uint64_t seed_;
  FactoryProbe probe_;
  std::unique_ptr<fi::Campaign> plain_;
  std::unique_ptr<fi::Campaign> probed_;
  Outputs expected_;
  fi::Report last_;  ///< Of the latest traced run.
  std::vector<double> imbalance_;  ///< Per traced campaign run.
};

}  // namespace

std::unique_ptr<Workload> make_e9b(std::uint64_t seed) {
  return std::make_unique<E9b>(seed);
}

}  // namespace e2ebench
