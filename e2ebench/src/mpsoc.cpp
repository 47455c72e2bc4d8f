// mpsoc_noc_sim — the TDMA NoC and its CAN overlay.
//
// The examples/integrated_mpsoc topology, rebuilt here: four DAS cores on a
// TDMA NoC (10 µs slots), powertrain -> chassis messages every 2 ms, legacy
// body software on the CAN overlay, and a babbling multimedia core. The
// only workload that runs noc and noc/can_overlay; it has no vfb, rv or
// validation, so changes confined to those layers should leave it
// unchanged. The input does not depend on the seed.
//
// A lifetime runs 10 s instead of the example's 3 s, so the babble window
// [1 s, 2 s) and the drain of the backlog it leaves (the babbler enqueues
// twice what its TDMA slot carries) are followed by a long steady state.
// Set-up warms up with one 1.5 s lifetime, half a second into the babble.
#include <memory>

#include "noc/can_overlay.hpp"
#include "noc/noc.hpp"
#include "os/ecu.hpp"
#include "workload.hpp"

namespace e2ebench {

namespace {

using namespace orte;
using sim::microseconds;
using sim::milliseconds;

constexpr sim::Duration kHorizon = sim::seconds(10);
constexpr sim::Duration kWarmUp = sim::milliseconds(1500);

/// One fresh chip. Members are declared in dependency order: the network
/// and ECUs hold references to the kernel and trace, the overlays to the
/// network interfaces.
struct Chip {
  explicit Chip(bool fingerprint) {
    trace.enable_retention(false);
    if (fingerprint) fp = std::make_unique<Fingerprint>(trace);
    auto& ni_power = network.attach("powertrain");
    auto& ni_chassis = network.attach("chassis");
    auto& ni_body = network.attach("body");
    auto& ni_media = network.attach("multimedia");

    auto& engine = power.add_task({.name = "engine_ctrl",
                                   .priority = 2,
                                   .period = milliseconds(2),
                                   .relative_deadline = milliseconds(2)});
    engine.set_body(microseconds(400), [&ni_power] {
      noc::NocMessage m;
      m.destination = 1;  // chassis core
      m.name = "engine_state";
      m.bytes = 32;
      ni_power.send(m);
    });
    stability = &chassis.add_task({.name = "stability_ctrl",
                                   .priority = 2,
                                   .relative_deadline = milliseconds(2)});
    stability->set_body(microseconds(600));
    ni_chassis.on_receive([this](const noc::NocMessage& m) {
      if (m.name == "engine_state") {
        ++engine_messages;
        chassis.activate(*stability);
      }
    });

    body_can = std::make_unique<noc::CanOverlay>(ni_body);
    media_can = std::make_unique<noc::CanOverlay>(ni_media);
    media_can->on_frame(0x2A0, [this](const noc::OverlayFrame&) {
      ++lock_frames;
    });
    auto& door = body.add_task({.name = "door_module",
                                .priority = 1,
                                .period = milliseconds(20)});
    door.set_body(microseconds(200), [this] { body_can->send(0x2A0, {0x01}); });

    network.inject_babble(/*core=*/3, /*burst_bytes=*/120,
                          /*interval=*/microseconds(20),
                          /*from=*/sim::seconds(1),
                          /*until=*/sim::seconds(2));
  }
  Chip(const Chip&) = delete;
  Chip& operator=(const Chip&) = delete;

  void start() {
    power.start();
    chassis.start();
    body.start();
    network.start();
  }

  [[nodiscard]] double jobs() const {
    double n = 0;
    for (const os::Ecu* e : {&power, &chassis, &body}) {
      for (const auto& t : e->tasks()) {
        n += static_cast<double>(t->jobs_completed());
      }
    }
    return n;
  }
  [[nodiscard]] double misses() const {
    double n = 0;
    for (const os::Ecu* e : {&power, &chassis, &body}) {
      for (const auto& t : e->tasks()) {
        n += static_cast<double>(t->deadline_misses());
      }
    }
    return n;
  }

  sim::Kernel kernel;
  sim::Trace trace;
  std::unique_ptr<Fingerprint> fp;
  noc::Noc network{kernel, trace,
                   {.arbitration = noc::Arbitration::kTdma,
                    .link_bandwidth_bps = 100'000'000,
                    .slot_len = microseconds(10)}};
  os::Ecu power{kernel, trace, "powertrain"};
  os::Ecu chassis{kernel, trace, "chassis"};
  os::Ecu body{kernel, trace, "body"};
  os::Task* stability = nullptr;
  std::unique_ptr<noc::CanOverlay> body_can;
  std::unique_ptr<noc::CanOverlay> media_can;
  std::uint64_t engine_messages = 0;
  std::uint64_t lock_frames = 0;
};

class Mpsoc final : public Workload {
 public:
  std::string golden_seed() const override { return "*"; }

  void setup() override {
    (void)lifetime(nullptr, nullptr, false, nullptr, kWarmUp);
  }

  Outputs reference(TraceTap* tap) override {
    Outputs out;
    expected_ = lifetime(nullptr, nullptr, true, tap, kHorizon, &out);
    return out;
  }

  void op(SpanRecorder* rec, Samples& samples, Checker& check) override {
    check.check("mpsoc lifetime", expected_,
                lifetime(rec, &samples, false, nullptr));
  }

  void per_layer(const SpanRecorder& rec, double /*variant_seconds*/,
                 MetricSink& m) override {
    constexpr std::string_view kRun = "sim.run_until";
    const auto sum = [&rec, kRun](std::string_view key) {
      return sum_arg(rec, kRun, key);
    };
    const double sim_s = sum("sim_s");
    const double events = sum("events");
    double host_ns = 0;
    for (const double ms : rec.durations_ms(kRun)) host_ns += ms * 1e6;
    const double lifetimes =
        static_cast<double>(span_count(rec, "mpsoc.lifetime"));
    m.set("sim.kernel.events_per_sim_s", events / sim_s);
    m.set("sim.kernel.host_ns_per_event", host_ns / events);
    m.set("sim.kernel.cancelled", sum("cancelled") / lifetimes);
    m.set("sim.kernel.peak_queue_depth", max_arg(rec, kRun, "peak_depth"));
    m.set("sim.trace.records_per_sim_s", sum("records") / sim_s);
    m.set("noc.delivered_per_sim_s", sum("delivered") / sim_s);
    m.set("noc.slot_useful_ratio", sum("delivered") / sum("slots"));
    m.set("noc.overlay_frames_per_sim_s", sum("overlay_frames") / sim_s);
    m.set("os.jobs_per_sim_s", sum("jobs") / sim_s);
    m.set("os.deadline_misses", sum("misses") / lifetimes);
  }

 private:
  /// One lifetime on a fresh chip. With `golden` set, the fingerprint
  /// and every output land there; the return value holds the outputs op()
  /// compares.
  static Outputs lifetime(SpanRecorder* rec, Samples* samples,
                          bool fingerprint, TraceTap* tap,
                          sim::Duration horizon = kHorizon,
                          Outputs* golden = nullptr) {
    const double horizon_s = static_cast<double>(horizon) / 1e9;
    Scope life(rec, "mpsoc.lifetime");
    std::unique_ptr<Chip> chip;
    {
      Scope s(rec, "noc.build", life.id());
      chip = std::make_unique<Chip>(fingerprint);
    }
    if (tap != nullptr) tap->attach(chip->trace);
    {
      Scope s(rec, "noc.start", life.id());
      chip->start();
    }
    const std::int64_t t0 = now_ns();
    {
      Scope s(rec, "sim.run_until", life.id());
      const sim::KernelCounters before = chip->kernel.counters();
      chip->kernel.run_until(horizon);
      if (rec != nullptr) {
        const sim::KernelCounters after = chip->kernel.counters();
        s.arg("sim_s", horizon_s);
        s.arg("events", static_cast<double>(after.executed - before.executed));
        s.arg("cancelled",
              static_cast<double>(after.cancelled - before.cancelled));
        s.arg("peak_depth", static_cast<double>(after.peak_queue_depth));
        s.arg("records", trace_records(chip->trace));
        s.arg("delivered",
              static_cast<double>(chip->network.messages_delivered()));
        const auto slot_len = chip->network.config().slot_len;
        s.arg("slots", static_cast<double>(horizon) /
                           static_cast<double>(slot_len));
        s.arg("overlay_frames",
              static_cast<double>(chip->media_can->frames_received()));
        s.arg("jobs", chip->jobs());
        s.arg("misses", chip->misses());
      }
    }
    const std::int64_t t1 = now_ns();
    if (samples != nullptr) {
      samples->add("host_ms_per_sim_s",
                   static_cast<double>(t1 - t0) / 1e6 / horizon_s);
    }
    Outputs out{
        {"noc.delivered", std::to_string(chip->network.messages_delivered())},
        {"engine_messages", std::to_string(chip->engine_messages)},
        {"overlay.frames", std::to_string(chip->lock_frames)},
        {"overlay.inversions",
         std::to_string(chip->media_can->order_inversions())},
        {"stability.jobs", std::to_string(chip->stability->jobs_completed())},
        {"deadline_misses",
         std::to_string(static_cast<std::uint64_t>(chip->misses()))},
    };
    if (golden != nullptr) {
      *golden = out;
      (*golden)["fnv"] = hex(chip->fp->value());
      (*golden)["trace.records"] = std::to_string(chip->fp->records());
    }
    return out;
  }

  Outputs expected_;
};

}  // namespace

std::unique_ptr<Workload> make_mpsoc() { return std::make_unique<Mpsoc>(); }

}  // namespace e2ebench
