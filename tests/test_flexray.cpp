// Unit tests: FlexRay — cycle structure, static TDMA slots, dynamic
// mini-slotting, state-message semantics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flexray/flexray_bus.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "trace_hash.hpp"

namespace {

using namespace orte::flexray;
using orte::net::Frame;
using orte::sim::Duration;
using orte::sim::EventOrder;
using orte::sim::Kernel;
using orte::sim::Rng;
using orte::sim::Time;
using orte::sim::Trace;
using orte_test::TraceHash;
using orte::sim::microseconds;
using orte::sim::milliseconds;

Frame make_frame(std::uint32_t id, std::size_t bytes, Time enq = 0) {
  Frame f;
  f.id = id;
  f.name = "f" + std::to_string(id);
  f.payload.assign(bytes, 0x5A);
  f.enqueued_at = enq;
  return f;
}

FlexRayConfig small_config() {
  FlexRayConfig cfg;
  cfg.static_slots = 4;
  cfg.static_payload_bytes = 8;
  cfg.minislots = 20;
  cfg.minislot_len = microseconds(2);
  cfg.network_idle = microseconds(10);
  return cfg;
}

struct Fixture {
  Kernel kernel;
  Trace trace;
};

TEST(FlexRay, CycleLengthMatchesConfig) {
  const auto cfg = small_config();
  // Slot: (8 overhead + 8 payload) * 8 bits * 0.1us + 1us guard = 13.8us.
  EXPECT_EQ(FlexRayBus::slot_length(cfg), 12'800 + 1'000);
  EXPECT_EQ(FlexRayBus::cycle_length(cfg),
            4 * 13'800 + 20 * 2'000 + 10'000);
}

TEST(FlexRay, NonPositiveBitrateRejected) {
  Fixture f;
  for (const std::int64_t bps : {0, -10'000'000}) {
    auto cfg = small_config();
    cfg.bitrate_bps = bps;
    EXPECT_THROW(FlexRayBus(f.kernel, f.trace, cfg), std::invalid_argument);
    EXPECT_THROW((void)FlexRayBus::slot_length(cfg), std::invalid_argument);
    EXPECT_THROW((void)FlexRayBus::cycle_length(cfg), std::invalid_argument);
  }
}

TEST(FlexRay, StaticFrameDeliveredAtSlotEnd) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  bus.assign_static_slot(2, tx);
  std::vector<Time> deliveries;
  rx.on_receive([&](const Frame&) { deliveries.push_back(f.kernel.now()); });
  f.kernel.schedule_at(0, [&] { tx.send(make_frame(2, 8, 0)); });
  bus.start();
  f.kernel.run_until(milliseconds(1));
  ASSERT_EQ(deliveries.size(), 1u);
  // Slot 2 ends at 2 * slot_len into the cycle.
  EXPECT_EQ(deliveries[0], 2 * bus.static_slot_len());
}

TEST(FlexRay, StateMessageSemanticsOverwrite) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  bus.assign_static_slot(1, tx);
  std::vector<std::uint8_t> last;
  rx.on_receive([&](const Frame& fr) { last = fr.payload; });
  f.kernel.schedule_at(0, [&] {
    auto f1 = make_frame(1, 8);
    f1.payload.assign(8, 0x01);
    tx.send(std::move(f1));
    auto f2 = make_frame(1, 8);
    f2.payload.assign(8, 0x02);
    tx.send(std::move(f2));  // overwrites before the slot: only 0x02 flies
  });
  bus.start();
  f.kernel.run_until(milliseconds(1));
  ASSERT_EQ(last.size(), 8u);
  EXPECT_EQ(last[0], 0x02);
  EXPECT_EQ(bus.stats().frames_delivered(), 1u);
}

TEST(FlexRay, MissedSlotWaitsOneCycle) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  bus.assign_static_slot(1, tx);
  std::vector<Time> deliveries;
  rx.on_receive([&](const Frame&) { deliveries.push_back(f.kernel.now()); });
  bus.start();
  // Write just after slot 1 started: transmitted in the *next* cycle.
  f.kernel.schedule_at(microseconds(1), [&] { tx.send(make_frame(1, 8)); });
  f.kernel.run_until(milliseconds(1));
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], bus.cycle_len() + bus.static_slot_len());
}

TEST(FlexRay, SlotOwnershipEnforced) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& a = bus.attach();
  auto& b = bus.attach();
  bus.assign_static_slot(1, a);
  EXPECT_THROW(bus.assign_static_slot(1, b), std::invalid_argument);
  EXPECT_THROW(bus.assign_static_slot(9, a), std::invalid_argument);
  EXPECT_THROW(b.send(make_frame(1, 8)), std::logic_error);
}

TEST(FlexRay, DynamicSegmentPriorityOrder) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  std::vector<std::uint32_t> order;
  rx.on_receive([&](const Frame& fr) { order.push_back(fr.id); });
  // Dynamic frame ids are > static_slots (4).
  f.kernel.schedule_at(0, [&] {
    tx.send(make_frame(9, 4));
    tx.send(make_frame(5, 4));
    tx.send(make_frame(7, 4));
  });
  bus.start();
  f.kernel.run_until(milliseconds(1));
  EXPECT_EQ(order, (std::vector<std::uint32_t>{5, 7, 9}));
}

TEST(FlexRay, DynamicFrameTooBigForRemainingMinislotsDefers) {
  Fixture f;
  auto cfg = small_config();
  cfg.minislots = 10;  // 20us dynamic segment
  FlexRayBus bus(f.kernel, f.trace, cfg);
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  std::vector<std::pair<Time, std::uint32_t>> rx_log;
  rx.on_receive([&](const Frame& fr) {
    rx_log.emplace_back(f.kernel.now(), fr.id);
  });
  f.kernel.schedule_at(0, [&] {
    // (8+8)*8 bits at 10Mbit = 12.8us -> 7 minislots each; two frames do not
    // both fit into 10 minislots.
    tx.send(make_frame(5, 8));
    tx.send(make_frame(6, 8));
  });
  bus.start();
  f.kernel.run_until(milliseconds(2));
  ASSERT_EQ(rx_log.size(), 2u);
  EXPECT_EQ(rx_log[0].second, 5u);
  EXPECT_EQ(rx_log[1].second, 6u);
  // Second frame went out one cycle later.
  EXPECT_GT(rx_log[1].first - rx_log[0].first,
            bus.cycle_len() - microseconds(20));
  EXPECT_EQ(bus.dynamic_deferrals(), 1u);
}

TEST(FlexRay, CyclesCountAndRepeat) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  bus.assign_static_slot(1, tx);
  int rx_count = 0;
  rx.on_receive([&](const Frame&) { ++rx_count; });
  // Writer publishes fresh state every cycle.
  f.kernel.schedule_periodic(0, bus.cycle_len(),
                             [&] { tx.send(make_frame(1, 8)); });
  bus.start();
  f.kernel.run_until(10 * bus.cycle_len());
  EXPECT_GE(bus.cycles(), 10u);
  // A write at cycle k (after slot 1 already ran) is delivered in cycle k+1;
  // the write at cycle 9 delivers past the horizon.
  EXPECT_EQ(rx_count, 9);
}

TEST(FlexRay, ZeroFrameIdRejected) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  EXPECT_THROW(tx.send(make_frame(0, 4)), std::invalid_argument);
}

TEST(FlexRay, OversizedStaticPayloadRejected) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  bus.assign_static_slot(1, tx);
  EXPECT_THROW(tx.send(make_frame(1, 16)), std::invalid_argument);
}

// --- Idle-slot skipping ------------------------------------------------------

TEST(FlexRay, IdleBusCostsOneEventPerCycle) {
  // An idle slot and an empty dynamic segment are free: per cycle the
  // kernel runs only the cycle start (fr.cycle), and cycles() still counts
  // them all.
  Fixture f;
  auto cfg = small_config();
  cfg.static_slots = 64;
  FlexRayBus bus(f.kernel, f.trace, cfg);
  bus.attach();
  bus.start();
  f.kernel.run_until(100 * bus.cycle_len() - 1);
  EXPECT_EQ(bus.cycles(), 100u);
  EXPECT_LE(f.kernel.events_executed(), bus.cycles());
}

TEST(FlexRay, OneStaticFrameCostsConstantEventsWhateverTheSlotCount) {
  const auto extra_events = [](std::size_t slots) {
    std::uint64_t events[2] = {0, 0};
    for (int with_frame = 0; with_frame < 2; ++with_frame) {
      Fixture f;
      auto cfg = small_config();
      cfg.static_slots = slots;
      FlexRayBus bus(f.kernel, f.trace, cfg);
      auto& tx = bus.attach();
      bus.attach();
      bus.assign_static_slot(3, tx);
      bus.start();
      f.kernel.schedule_at(bus.cycle_len() / 2, [&] {
        if (with_frame == 1) tx.send(make_frame(3, 8));
      });
      f.kernel.run_until(5 * bus.cycle_len() - 1);
      EXPECT_EQ(bus.stats().frames_delivered(),
                static_cast<std::uint64_t>(with_frame));
      events[with_frame] = f.kernel.events_executed();
    }
    return events[1] - events[0];
  };
  // The armed slot start and the delivery.
  EXPECT_EQ(extra_events(4), 2u);
  EXPECT_EQ(extra_events(64), 2u);
}

TEST(FlexRay, AdjacentFramesShareTheBoundaryEvent) {
  // Slot 2 is armed. Slot 3 is written when slot 2's frame arrives (the
  // instant slot 3 starts) and slot 4 when slot 3's arrives: each runs
  // inside the previous slot's delivery.
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  for (std::uint32_t s = 2; s <= 4; ++s) bus.assign_static_slot(s, tx);
  std::vector<std::pair<Time, std::uint32_t>> rx_log;
  rx.on_receive([&](const Frame& fr) {
    rx_log.emplace_back(f.kernel.now(), fr.id);
    if (fr.id < 4) tx.send(make_frame(fr.id + 1, 8));
  });
  bus.start();
  f.kernel.run_until(bus.cycle_len() / 2);
  const std::uint64_t before = f.kernel.events_executed();
  tx.send(make_frame(2, 8));
  f.kernel.run_until(2 * bus.cycle_len() - 1);
  const Duration slot = bus.static_slot_len();
  const Time cycle = bus.cycle_len();
  EXPECT_EQ(rx_log, (std::vector<std::pair<Time, std::uint32_t>>{
                        {cycle + 2 * slot, 2},
                        {cycle + 3 * slot, 3},
                        {cycle + 4 * slot, 4}}));
  // Cycle 1's start, the armed slot 2 and one delivery per frame; no
  // dynamic frame is queued, so no segment runs.
  EXPECT_EQ(f.kernel.events_executed() - before, 5u);
}

TEST(FlexRay, WriteAtExactSlotStartFromHardwareEventMakesTheSlot) {
  // A write at slot 3's exact start from a hardware-ordered event queued
  // ahead of the bus transmits in that slot; the same write from a software
  // event waits one cycle (the slot boundary already passed).
  for (const EventOrder order :
       {EventOrder::kHardware, EventOrder::kSoftware}) {
    Fixture f;
    FlexRayBus bus(f.kernel, f.trace, small_config());
    auto& tx = bus.attach();
    auto& rx = bus.attach();
    bus.assign_static_slot(3, tx);
    std::vector<Time> deliveries;
    rx.on_receive([&](const Frame&) { deliveries.push_back(f.kernel.now()); });
    const Time slot3 = bus.cycle_len() + 2 * bus.static_slot_len();
    f.kernel.schedule_at(slot3, [&] { tx.send(make_frame(3, 8)); }, order);
    bus.start();
    f.kernel.run_until(4 * bus.cycle_len());
    ASSERT_EQ(deliveries.size(), 1u);
    const Duration wait =
        order == EventOrder::kHardware ? 0 : bus.cycle_len();
    const Time expected = slot3 + bus.static_slot_len() + wait;
    EXPECT_EQ(deliveries[0], expected);
  }
}

// --- Dynamic segment armed on demand -----------------------------------------

/// One dynamic frame (id 5, 4 bytes: 5 minislots = 10 us) queued at `at`
/// from an event of class `order`; returns its delivery instants.
std::vector<Time> dynamic_frame_deliveries(Time at, EventOrder order,
                                           Duration* segment_start,
                                           Duration* cycle) {
  Fixture f;
  FlexRayBus bus(f.kernel, f.trace, small_config());
  auto& tx = bus.attach();
  auto& rx = bus.attach();
  std::vector<Time> deliveries;
  rx.on_receive([&](const Frame&) { deliveries.push_back(f.kernel.now()); });
  f.kernel.schedule_at(at, [&] { tx.send(make_frame(5, 4)); }, order);
  bus.start();
  f.kernel.run_until(4 * bus.cycle_len());
  *segment_start = 4 * bus.static_slot_len();
  *cycle = bus.cycle_len();
  return deliveries;
}

TEST(FlexRay, DynamicFrameQueuedBeforeTheSegmentStartGoesThisCycle) {
  Duration segment = 0;
  Duration cycle = 0;
  const auto deliveries = dynamic_frame_deliveries(
      microseconds(10), EventOrder::kDefault, &segment, &cycle);
  EXPECT_EQ(deliveries, (std::vector<Time>{segment + microseconds(10)}));
}

TEST(FlexRay, DynamicFrameQueuedAfterTheSegmentStartWaitsOneCycle) {
  Duration segment = 0;
  Duration cycle = 0;
  const auto deliveries = dynamic_frame_deliveries(
      microseconds(60), EventOrder::kDefault, &segment, &cycle);
  ASSERT_GT(microseconds(60), segment);
  EXPECT_EQ(deliveries,
            (std::vector<Time>{cycle + segment + microseconds(10)}));
}

TEST(FlexRay, DynamicFrameAtTheExactSegmentStartFollowsTheSlotRule) {
  // As for a static slot: a hardware-ordered caller at the segment's start
  // instant makes this cycle, a software-ordered one has passed it.
  const Time start = 4 * FlexRayBus::slot_length(small_config());
  for (const EventOrder order :
       {EventOrder::kHardware, EventOrder::kSoftware}) {
    Duration segment = 0;
    Duration cycle = 0;
    const auto deliveries =
        dynamic_frame_deliveries(start, order, &segment, &cycle);
    ASSERT_EQ(segment, start);
    const Duration wait = order == EventOrder::kHardware ? 0 : cycle;
    EXPECT_EQ(deliveries,
              (std::vector<Time>{segment + wait + microseconds(10)}));
  }
}

TEST(FlexRay, DynamicSegmentRunsFromAFullLastStaticSlot) {
  // The last static slot (4) carries a frame, so its delivery at the
  // segment start runs the segment. The dynamic frame is queued either
  // before slot 4 starts (its armed segment event is cancelled) or while
  // slot 4's frame is on the wire (no segment event is armed at all).
  for (const Time at : {microseconds(10), microseconds(50)}) {
    Fixture f;
    FlexRayBus bus(f.kernel, f.trace, small_config());
    auto& tx = bus.attach();
    auto& rx = bus.attach();
    bus.assign_static_slot(4, tx);
    std::vector<std::pair<Time, std::uint32_t>> rx_log;
    rx.on_receive([&](const Frame& fr) {
      rx_log.emplace_back(f.kernel.now(), fr.id);
    });
    f.kernel.schedule_at(0, [&] { tx.send(make_frame(4, 8)); });
    f.kernel.schedule_at(at, [&] { tx.send(make_frame(5, 4)); });
    bus.start();
    f.kernel.run_until(bus.cycle_len() - 1);
    const Time slot4 = 3 * bus.static_slot_len();
    const Time segment = 4 * bus.static_slot_len();
    ASSERT_LT(slot4, microseconds(50));
    EXPECT_EQ(rx_log, (std::vector<std::pair<Time, std::uint32_t>>{
                          {segment, 4}, {segment + microseconds(10), 5}}));
    // The segment cancels the cycle start begin_cycle armed; slot 4
    // cancels the segment event armed before it started.
    EXPECT_EQ(f.kernel.counters().cancelled, at < slot4 ? 2u : 1u);
  }
}

TEST(FlexRay, InvalidTimingDomainRejected) {
  Fixture f;
  auto idle = small_config();
  idle.network_idle = -microseconds(500);
  EXPECT_THROW(FlexRayBus(f.kernel, f.trace, idle), std::invalid_argument);
  for (const Duration len : {Duration{0}, -microseconds(2)}) {
    auto cfg = small_config();
    cfg.minislot_len = len;
    EXPECT_THROW(FlexRayBus(f.kernel, f.trace, cfg), std::invalid_argument);
    cfg.minislots = 0;  // no dynamic segment: its minislot length is unused
    EXPECT_NO_THROW(FlexRayBus(f.kernel, f.trace, cfg));
  }
  auto no_idle = small_config();
  no_idle.network_idle = 0;
  EXPECT_NO_THROW(FlexRayBus(f.kernel, f.trace, no_idle));
}

// --- Equivalence with a bus that ticks every slot ----------------------------

/// A seeded random traffic script: static writes at random instants and at
/// exact slot starts, from hardware- and software-ordered events and from
/// receive callbacks (adjacent slots, slot 1, the last slot, overwrites
/// before transmission), a frame buffered before start(), dynamic bursts
/// that defer and overflow the controller queue, a channel blackout and a
/// dropping fault hook.
std::uint64_t traffic_script_hash(std::size_t* records) {
  Fixture f;
  TraceHash hash(f.trace);
  FlexRayConfig cfg;
  cfg.static_slots = 6;
  cfg.static_payload_bytes = 8;
  cfg.minislots = 16;
  cfg.minislot_len = microseconds(2);
  cfg.network_idle = microseconds(4);
  cfg.dynamic_queue_limit = 5;
  FlexRayBus bus(f.kernel, f.trace, cfg);
  std::vector<FlexRayController*> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(&bus.attach());
  // Slots 1-2: node 0, 3-4: node 1, 5-6: node 2; node 3 only listens.
  for (std::uint32_t s = 1; s <= 6; ++s) {
    bus.assign_static_slot(s, *nodes[(s - 1) / 2]);
  }
  Rng rng(0xF1E8A7);
  std::uint8_t stamp = 0;
  const auto write = [&](std::uint32_t id, std::size_t bytes) {
    Frame fr = make_frame(id, bytes, f.kernel.now());
    fr.payload.assign(bytes, ++stamp);
    const std::size_t owner = id <= 6 ? (id - 1) / 2 : id % 4;
    nodes[owner]->send(std::move(fr));
  };
  const char* const names[] = {"n0", "n1", "n2", "n3"};
  for (int n = 0; n < 4; ++n) {
    nodes[static_cast<std::size_t>(n)]->on_receive([&, n](const Frame& fr) {
      f.trace.emit(f.kernel.now(), "test.rx", names[n],
                   static_cast<std::int64_t>(fr.id) * 256 + fr.payload[0]);
      // Reactive writes at the delivery instant: the next slot (adjacent,
      // starts right now), a later slot, or a dynamic frame; or the same
      // from a hardware event queued behind this delivery.
      if (n == 3 || !rng.chance(0.4)) return;
      const auto pick = rng.uniform(0, 2);
      const auto id = static_cast<std::uint32_t>(
          pick == 2 ? rng.uniform(7, 12) : 2 * n + 1 + pick);
      if (rng.chance(0.5)) {
        write(id, 6);
      } else {
        f.kernel.schedule_at(f.kernel.now(), [&write, id] { write(id, 6); },
                             EventOrder::kHardware);
      }
    });
  }
  const Duration slot = bus.static_slot_len();
  const Duration cycle = bus.cycle_len();
  constexpr int kCycles = 40;
  const auto schedule_writes = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const auto id = static_cast<std::uint32_t>(rng.uniform(1, 6));
      const Time cycle_start = rng.uniform(0, kCycles - 1) * cycle;
      Time when = rng.uniform(0, kCycles * cycle);
      const auto shape = rng.uniform(0, 2);
      if (shape == 0) when = cycle_start + (id - 1) * slot;  // own slot start
      if (shape == 1) when = cycle_start + rng.uniform(0, 6) * slot;
      const auto bytes = static_cast<std::size_t>(rng.uniform(1, 8));
      const EventOrder order =
          rng.chance(0.5) ? EventOrder::kHardware : EventOrder::kSoftware;
      f.kernel.schedule_at(when, [&write, id, bytes] { write(id, bytes); },
                           order);
    }
  };
  schedule_writes(80);
  for (int i = 0; i < 60; ++i) {
    const Time when = rng.uniform(0, kCycles * cycle);
    const int burst = static_cast<int>(rng.uniform(1, 4));
    f.kernel.schedule_at(
        when,
        [&write, &rng, burst] {
          for (int b = 0; b < burst; ++b) {
            write(static_cast<std::uint32_t>(rng.uniform(7, 12)),
                  static_cast<std::size_t>(rng.uniform(1, 16)));
          }
        },
        rng.chance(0.5) ? EventOrder::kHardware : EventOrder::kDefault);
  }
  write(4, 8);  // buffered before start()
  bus.start();
  schedule_writes(80);
  bus.fail_channel(10 * cycle + 3 * slot, 14 * cycle + 1);
  int hooked = 0;
  bus.set_fault_hook([&hooked](Frame&) {
    return orte::net::FaultVerdict{.drop = ++hooked % 7 == 3};
  });
  f.kernel.run_until(kCycles * cycle + cycle / 2);
  hash.mix(bus.cycles());
  hash.mix(bus.stats().frames_delivered());
  hash.mix(bus.dynamic_deferrals());
  if (records != nullptr) *records = hash.records;
  return hash.h;
}

TEST(FlexRay, TrafficScriptMatchesSlotTickingBus) {
  // Recorded from the bus that ran one kernel event per static slot; idle-
  // slot skipping must leave the trace bit-identical. If an intentional
  // change to bus behaviour lands, regenerate the constants with the
  // previous implementation and document the break.
  std::size_t records = 0;
  EXPECT_EQ(traffic_script_hash(&records), 0xa250b5feb8d3778bull);
  EXPECT_EQ(records, 1231u);
}

}  // namespace
