// Experiment E9 / Figure 1 — the AUTOSAR concept stack, realized.
//
// Figure 1 of the paper is qualitative (the layered architecture + new
// concepts). This bench (a) prints the inventory of the layers this
// repository implements against the figure, and (b) uses google-benchmark to
// measure the per-call cost of the realized services, demonstrating the
// stack is lightweight enough for per-runnable use.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_gbench_json.hpp"
#include "bsw/com.hpp"
#include "bsw/nvm.hpp"
#include "contracts/contract.hpp"
#include "contracts/network.hpp"
#include "os/ecu.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "vfb/model.hpp"
#include "vfb/rte.hpp"

using namespace orte;

namespace {

void print_inventory() {
  std::puts("=== Fig. 1: AUTOSAR concepts -> OpenRTE modules ===");
  std::puts("  paper concept              module              realized as");
  std::puts("  -------------------------  ------------------  ----------------------------");
  std::puts("  VFB / RTE                  src/vfb             Composition, Rte, System");
  std::puts("  OS kernel                  src/os              Ecu, fixed-priority + TT + budgets");
  std::puts("  COM services               src/bsw/com         signals, I-PDUs, tx modes, timeouts");
  std::puts("  Mode management            src/bsw/mode        ModeMachine");
  std::puts("  Diagnostics                src/bsw/dem         Dem, DTC storage, aging");
  std::puts("  Memory services            src/bsw/nvm         NvM, CRC16, redundant blocks");
  std::puts("  Error handling             src/bsw + trace     DEM events, com timeouts, wdg");
  std::puts("  Bus systems                src/can,flexray,ttp CAN 2.0A, FlexRay 2.1, TTP");
  std::puts("  NoC / MPSoC (sec. 4)       src/noc             TDMA NoC, CAN overlay");
  std::puts("  Rich components (sec. 3)   src/contracts       A/G contracts, dominance, TA");
  std::puts("  Runtime verification       src/rv              online monitors, health, exporters");
  std::puts("  Timing analysis (sec. 3)   src/analysis        RTA, CAN/FlexRay, e2e, TT synth");
  std::puts("  Config classes             typed C++ config    pre-build (ctor) / post-build (plan)");
  std::puts("");
}

void BM_RteLocalWriteRead(benchmark::State& state) {
  // One explicit Rte_Write through the producer's context, delivered along
  // a same-ECU route, then one explicit Rte_Read through the consumer's: the
  // path every runnable pays, trace records included. The RTE is wired the
  // way vfb::System binds it, with dense slot/sender/binding IDs.
  sim::Kernel kernel;
  sim::Trace trace;
  trace.enable_retention(false);
  const vfb::Composition comp;  // only client-server calls consult it
  const vfb::DataElement val{"val", 32, 0, false};
  std::uint64_t written = 0;
  std::uint64_t last_read = 0;
  vfb::Runnable produce;
  produce.name = "produce";
  produce.accesses.push_back(
      {"out", "val", vfb::DataAccessKind::kExplicitWrite});
  produce.behavior = [&written](vfb::RunnableContext& ctx) {
    ctx.write("out", "val", ++written);
  };
  vfb::Runnable consume;
  consume.name = "consume";
  consume.accesses.push_back({"in", "val", vfb::DataAccessKind::kExplicitRead});
  consume.behavior = [&last_read](vfb::RunnableContext& ctx) {
    last_read = ctx.read("in", "val");
  };

  vfb::Rte rte(kernel, trace, comp, "e");
  const auto sender = rte.add_sender("p.out.val");
  const auto slot = rte.add_slot("c.in.val", val);
  rte.add_route(sender, slot);
  const auto producer = rte.bind("p", produce, {sender});
  const auto consumer = rte.bind("c", consume, {slot});
  for (auto _ : state) {
    rte.run_behavior(producer);
    rte.run_behavior(consumer);
    benchmark::DoNotOptimize(last_read);
  }
  if (last_read != written) state.SkipWithError("the read lost the write");
}
BENCHMARK(BM_RteLocalWriteRead);

void BM_ComPackUnpack(benchmark::State& state) {
  std::vector<std::uint8_t> payload(8, 0);
  std::uint64_t v = 0;
  for (auto _ : state) {
    bsw::pack_signal(payload, 5, 17, ++v & 0x1FFFF);
    benchmark::DoNotOptimize(bsw::unpack_signal(payload, 5, 17));
  }
}
BENCHMARK(BM_ComPackUnpack);

void BM_Crc16Block(benchmark::State& state) {
  std::vector<std::uint8_t> block(static_cast<std::size_t>(state.range(0)),
                                  0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bsw::crc16(block));
  }
}
BENCHMARK(BM_Crc16Block)->Arg(16)->Arg(256)->Arg(4096);

void BM_ContractSatisfies(benchmark::State& state) {
  contracts::FlowSpec g{.flow = "x",
                        .range = {0, 900},
                        .timing = {sim::milliseconds(10), sim::milliseconds(1),
                                   sim::milliseconds(4)}};
  contracts::FlowSpec a{.flow = "x",
                        .range = {0, 1000},
                        .timing = {sim::milliseconds(10), sim::milliseconds(1),
                                   sim::milliseconds(5)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(contracts::satisfies(g, a).ok);
  }
}
BENCHMARK(BM_ContractSatisfies);

void BM_KernelEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel kernel;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      kernel.schedule_at(i, [&count] { ++count; });
    }
    kernel.run_until(2000);
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_KernelEventThroughput);

void BM_SimulatedEcuMillisecond(benchmark::State& state) {
  // Cost of simulating 1 ms of a 3-task ECU (events + dispatching).
  for (auto _ : state) {
    sim::Kernel kernel;
    sim::Trace trace;
    trace.enable_retention(false);
    os::Ecu ecu(kernel, trace, "e");
    ecu.add_task({.name = "a", .priority = 3, .period = sim::microseconds(100)})
        .set_body(sim::microseconds(20));
    ecu.add_task({.name = "b", .priority = 2, .period = sim::microseconds(200)})
        .set_body(sim::microseconds(50));
    ecu.add_task({.name = "c", .priority = 1, .period = sim::microseconds(500)})
        .set_body(sim::microseconds(100));
    ecu.start();
    kernel.run_until(sim::milliseconds(1));
    benchmark::DoNotOptimize(ecu.utilization());
  }
}
BENCHMARK(BM_SimulatedEcuMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_inventory();
  return bench::run_google_benchmarks_with_json(argc, argv, "fig1_stack");
}
