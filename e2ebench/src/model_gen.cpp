#include "model_gen.hpp"

#include <sstream>
#include <utility>

#include "contracts/contract.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "vfb/rte.hpp"

namespace e2ebench {

namespace {

using namespace orte;
using namespace orte::vfb;
using sim::milliseconds;
using sim::microseconds;

// Producer periods stay at CAN-friendly rates: with up to 16 cross-ECU
// signals the generated frame set must keep V11's bandwidth check quiet at
// 500 kbit/s.
const std::vector<sim::Duration> kProducerPeriods{
    milliseconds(10), milliseconds(20), milliseconds(50)};
// Periodic consumers may run slower than their producer; with a short
// queue that is what overflows it.
const std::vector<sim::Duration> kConsumerPeriods{
    milliseconds(10), milliseconds(20), milliseconds(50), milliseconds(100)};
const std::vector<std::size_t> kWidths{8, 16, 32};
// Latency obligations sit far above any schedulable bound, so V9 reports
// info with slack and each latency monitor carries its static bound.
constexpr sim::Duration kSinkLatency = milliseconds(500);

DataAccessKind write_kind(sim::Rng& rng) {
  return rng.index(2) == 0 ? DataAccessKind::kImplicitWrite
                           : DataAccessKind::kExplicitWrite;
}

DataAccessKind read_kind(sim::Rng& rng) {
  return rng.index(2) == 0 ? DataAccessKind::kImplicitRead
                           : DataAccessKind::kExplicitRead;
}

sim::Duration draw_wcet(sim::Rng& rng) {
  return microseconds(50 + 50 * static_cast<std::int64_t>(rng.index(6)));
}

Runnable timed_or_event(sim::Rng& rng, bool event, const std::string& port,
                        const std::string& element) {
  Runnable r;
  r.trigger = event ? RunnableTrigger::data_received(port, element)
                    : RunnableTrigger::timing(
                          kConsumerPeriods[rng.index(kConsumerPeriods.size())]);
  r.wcet_bound = draw_wcet(rng);
  const sim::Duration exec = r.wcet_bound / 2;
  r.execution_time = [exec] { return exec; };
  return r;
}

const char* to_cstr(DataAccessKind k) {
  switch (k) {
    case DataAccessKind::kImplicitRead: return "iread";
    case DataAccessKind::kImplicitWrite: return "iwrite";
    case DataAccessKind::kExplicitRead: return "eread";
    case DataAccessKind::kExplicitWrite: return "ewrite";
  }
  return "?";
}

void render_spec(std::ostringstream& os, const char* side,
                 const contracts::FlowSpec& f) {
  os << "  " << side << ' ' << f.flow << " range=[" << f.range.lo << ','
     << f.range.hi << "] period=" << f.timing.period
     << " latency=" << f.timing.latency << '\n';
}

/// Canonical text of everything the model and plan carry (behaviour
/// closures aside, whose parameters derive from names rendered here).
std::string render(const Composition& m, const DeploymentPlan& plan) {
  std::ostringstream os;
  for (const auto& [name, iface] : m.interfaces()) {
    os << "interface " << name << '\n';
    for (const auto& e : iface.elements) {
      os << "  element " << e.name << " bits=" << e.bit_length
         << " queued=" << e.queued << " qlen=" << e.queue_length
         << " overflow=" << static_cast<int>(e.overflow) << '\n';
    }
  }
  for (const auto& [name, type] : m.types()) {
    os << "type " << name << '\n';
    for (const auto& p : type.ports) {
      os << "  port " << p.name << ' ' << p.interface << ' '
         << (p.direction == PortDirection::kProvided ? "provided"
                                                     : "required")
         << '\n';
    }
    for (const auto& r : type.runnables) {
      os << "  runnable " << r.name << " trigger="
         << static_cast<int>(r.trigger.kind) << " period=" << r.trigger.period
         << " on=" << r.trigger.port << '.' << r.trigger.element
         << " wcet=" << r.wcet_bound
         << " exec=" << (r.execution_time ? r.execution_time() : 0) << '\n';
      for (const auto& a : r.accesses) {
        os << "    access " << a.port << '.' << a.element << ' '
           << to_cstr(a.kind) << '\n';
      }
    }
  }
  for (const auto& i : m.instances()) {
    os << "instance " << i.name << ' ' << i.type << " ecu="
       << plan.instances.at(i.name).ecu << '\n';
  }
  for (const auto& c : m.connectors()) {
    os << "connector " << c.from_instance << '.' << c.from_port << " -> "
       << c.to_instance << '.' << c.to_port << '\n';
  }
  for (const auto& [instance, c] : m.bound_contracts()) {
    os << "contract " << c.name << " on " << instance << '\n';
    for (const auto& g : c.guarantees) render_spec(os, "guarantee", g);
    for (const auto& a : c.assumptions) render_spec(os, "assumption", a);
  }
  os << "plan bus=" << static_cast<int>(plan.bus)
     << " alive=" << plan.alive_supervision
     << " rv=" << plan.runtime_verification << '\n';
  return os.str();
}

}  // namespace

GeneratedModel generate_model(std::uint64_t seed, std::size_t index) {
  GeneratedModel g;
  g.name = "m" + std::to_string(index);
  sim::Rng rng = sim::Rng(seed).fork(index);
  Composition& m = g.model;
  DeploymentPlan& plan = g.plan;
  plan.bus = BusKind::kCan;
  // Alive supervision binds a watchdog to every periodic guarantee, which
  // keeps V15 quiet and puts the bsw watchdog on the run-time path.
  plan.alive_supervision = true;

  const std::size_t suppliers = 2 + index % 3;
  const std::size_t ecu_count = 2 + (index / 3) % 3;
  const auto ecu = [&rng, ecu_count] {
    return "ecu" + std::to_string(rng.index(ecu_count));
  };

  for (std::size_t s = 0; s < suppliers; ++s) {
    for (std::size_t c = 0; c < 2; ++c) {
      const std::string id = "s" + std::to_string(s) + "c" + std::to_string(c);
      PortInterface iface;
      iface.name = "I" + id;
      DataElement elem;
      elem.name = "v";
      elem.bit_length = kWidths[rng.index(kWidths.size())];
      elem.queued = rng.index(3) == 0;
      if (elem.queued) {
        elem.queue_length = 2 + rng.index(3);
        elem.overflow = rng.index(2) == 0 ? QueueOverflow::kReject
                                          : QueueOverflow::kDropOldest;
      }
      iface.elements.push_back(elem);
      m.add_interface(iface);

      // Producer: periodic, writes an in-range trajectory indexed by its
      // activation (simulated time / period), so every System built from
      // the model writes the same values.
      const std::int64_t hi = (std::int64_t{1} << (elem.bit_length - 1)) - 1;
      const sim::Duration period =
          kProducerPeriods[rng.index(kProducerPeriods.size())];
      Runnable produce;
      produce.name = "produce";
      produce.trigger = RunnableTrigger::timing(period);
      produce.wcet_bound = draw_wcet(rng);
      const sim::Duration exec = produce.wcet_bound / 2;
      produce.execution_time = [exec] { return exec; };
      const DataAccessKind wkind = write_kind(rng);
      produce.accesses.push_back({"out", "v", wkind});
      const std::uint64_t stride = 37 + 2 * (2 * s + c);
      const auto modulus = static_cast<std::uint64_t>(hi) + 1;
      produce.behavior = [period, stride, modulus](RunnableContext& ctx) {
        const auto n = static_cast<std::uint64_t>(ctx.now() / period);
        ctx.write("out", "v", n * stride % modulus);
      };
      m.add_type({"P" + id,
                  {Port{"out", iface.name, PortDirection::kProvided}},
                  {produce}});
      const std::string producer = "s" + std::to_string(s) + "_p" +
                                   std::to_string(c);
      m.add_instance({producer, "P" + id});
      plan.instances[producer] = {.ecu = ecu()};

      const bool guarded = rng.index(2) == 0;
      if (guarded) {
        contracts::Contract pc{.name = "G_" + producer};
        pc.guarantees.push_back({.flow = "out.v",
                                 .range = {0, hi},
                                 .timing = {.period = period,
                                            .latency = kSinkLatency}});
        m.bind_contract(producer, pc);
      }

      // Consumers: one or two sinks, each data-received or periodic.
      const std::size_t sinks = 1 + rng.index(2);
      for (std::size_t k = 0; k < sinks; ++k) {
        const std::string sink_id = id + "k" + std::to_string(k);
        const bool event = rng.index(2) == 0;
        Runnable consume = timed_or_event(rng, event, "in", "v");
        consume.name = "consume";
        // An explicit read against an explicit write is a V4 torn-read
        // hazard; the generator keeps every model free of warnings it can
        // avoid, so explicit writes pair with implicit reads.
        consume.accesses.push_back(
            {"in", "v",
             wkind == DataAccessKind::kExplicitWrite
                 ? DataAccessKind::kImplicitRead
                 : read_kind(rng)});
        consume.behavior = [](RunnableContext& ctx) {
          (void)ctx.read("in", "v");
        };
        m.add_type({"C" + sink_id,
                    {Port{"in", iface.name, PortDirection::kRequired}},
                    {consume}});
        const std::string sink = "s" + std::to_string(s) + "_k" +
                                 std::to_string(c) + std::to_string(k);
        m.add_instance({sink, "C" + sink_id});
        m.add_connector({producer, "out", sink, "in"});
        plan.instances[sink] = {.ecu = ecu()};

        contracts::Contract kc{.name = "A_" + sink};
        contracts::FlowSpec assumption{.flow = "in.v"};
        if (event) assumption.timing.latency = kSinkLatency;
        if (guarded && rng.index(2) == 0) assumption.range = {0, hi};
        if (assumption.timing.latency > 0 || guarded) {
          kc.assumptions.push_back(assumption);
          m.bind_contract(sink, kc);
        }
      }
    }
  }
  g.description = render(m, plan);
  return g;
}

std::vector<GeneratedModel> generate_model_set(std::uint64_t seed,
                                               std::size_t count) {
  std::vector<GeneratedModel> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(generate_model(seed, i));
  }
  return out;
}

}  // namespace e2ebench
