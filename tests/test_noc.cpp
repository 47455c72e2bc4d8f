// Unit tests: NoC — TDMA vs FCFS arbitration, guardian-by-construction
// containment, CAN overlay middleware.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noc/can_overlay.hpp"
#include "noc/noc.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "trace_hash.hpp"

namespace {

using namespace orte::noc;
using orte::sim::Duration;
using orte::sim::EventOrder;
using orte::sim::Kernel;
using orte::sim::Rng;
using orte::sim::Time;
using orte::sim::Trace;
using orte_test::TraceHash;
using orte::sim::microseconds;
using orte::sim::milliseconds;

struct Fixture {
  Kernel kernel;
  Trace trace;
};

NocConfig config(Arbitration arb) {
  NocConfig cfg;
  cfg.arbitration = arb;
  cfg.link_bandwidth_bps = 100'000'000;  // 80ns per byte
  cfg.slot_len = microseconds(10);
  return cfg;
}

NocMessage msg(int dst, std::size_t bytes, std::string name = "m") {
  NocMessage m;
  m.destination = dst;
  m.bytes = bytes;
  m.name = std::move(name);
  return m;
}

TEST(Noc, TdmaDeliversWithinOwnSlot) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  std::vector<Time> rx;
  b.on_receive([&](const NocMessage&) { rx.push_back(f.kernel.now()); });
  f.kernel.schedule_at(0, [&] { a.send(msg(1, 100)); });
  noc.start();
  f.kernel.run_until(milliseconds(1));
  ASSERT_EQ(rx.size(), 1u);
  // Core 0's t=0 slot drains before the send lands, so the message goes out
  // in core 0's next slot (period 20us); 100 bytes at 100Mbit/s = 8us.
  EXPECT_EQ(rx[0], microseconds(28));
  EXPECT_EQ(b.messages_received(), 1u);
  EXPECT_EQ(a.messages_sent(), 1u);
}

TEST(Noc, NonPositiveLinkBandwidthRejected) {
  Fixture f;
  for (const std::int64_t bps : {0, -1}) {
    NocConfig cfg = config(Arbitration::kTdma);
    cfg.link_bandwidth_bps = bps;
    EXPECT_THROW(Noc(f.kernel, f.trace, cfg), std::invalid_argument);
  }
}

TEST(Noc, TdmaMessageWaitsForOwnersSlot) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  std::vector<Time> rx;
  a.on_receive([&](const NocMessage&) { rx.push_back(f.kernel.now()); });
  // b sends at t=1us; b's slot spans [10us, 20us).
  f.kernel.schedule_at(microseconds(1), [&] { b.send(msg(0, 100)); });
  noc.start();
  f.kernel.run_until(milliseconds(1));
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0], microseconds(18));
}

TEST(Noc, TdmaOversizedMessageRejected) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  noc.attach("b");
  // Slot capacity: 10us / 80ns = 125 bytes.
  EXPECT_EQ(noc.slot_capacity_bytes(), 125u);
  EXPECT_THROW(a.send(msg(1, 126)), std::invalid_argument);
}

TEST(Noc, TdmaBabblerCannotDelayOthers) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  auto& c = noc.attach("c");
  (void)a;
  std::vector<double> latencies;
  c.on_receive([&](const NocMessage& m) {
    if (m.name == "useful") {
      latencies.push_back(orte::sim::to_us(m.delivered_at - m.enqueued_at));
    }
  });
  // Core 0 babbles broadcast floods; core 1 sends a useful message per 100us.
  noc.inject_babble(0, 100, microseconds(5), 0, milliseconds(10));
  f.kernel.schedule_periodic(0, microseconds(100), [&] {
    b.send(msg(2, 100, "useful"));
  });
  noc.start();
  f.kernel.run_until(milliseconds(10));
  ASSERT_GT(latencies.size(), 50u);
  // b's slot comes once per 30us period: worst case wait < period + tx.
  for (double l : latencies) EXPECT_LT(l, 40.0);
}

TEST(Noc, FcfsBabblerStarvesOthers) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kFcfs));
  noc.attach("a");
  auto& b = noc.attach("b");
  auto& c = noc.attach("c");
  std::vector<double> latencies;
  c.on_receive([&](const NocMessage& m) {
    if (m.name == "useful") {
      latencies.push_back(orte::sim::to_us(m.delivered_at - m.enqueued_at));
    }
  });
  // Babbler floods a 100Mbit link with 125-byte (10us) messages every 5us:
  // demand is 2x the link capacity, the FIFO backlog grows without bound.
  noc.inject_babble(0, 125, microseconds(5), 0, milliseconds(10));
  f.kernel.schedule_periodic(0, microseconds(100), [&] {
    b.send(msg(2, 100, "useful"));
  });
  noc.start();
  f.kernel.run_until(milliseconds(10));
  ASSERT_GT(latencies.size(), 10u);
  // Later useful messages see ever-growing queueing delay.
  EXPECT_GT(latencies.back(), 100.0);
  EXPECT_GT(latencies.back(), latencies.front() * 5);
}

TEST(Noc, FcfsFifoOrderWithoutContention) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kFcfs));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  std::vector<std::string> order;
  b.on_receive([&](const NocMessage& m) { order.push_back(m.name); });
  f.kernel.schedule_at(0, [&] {
    a.send(msg(1, 10, "first"));
    a.send(msg(1, 10, "second"));
  });
  noc.start();
  f.kernel.run_until(milliseconds(1));
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
}

TEST(Noc, BroadcastReachesAllButSender) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  auto& c = noc.attach("c");
  int b_rx = 0, c_rx = 0, a_rx = 0;
  a.on_receive([&](const NocMessage&) { ++a_rx; });
  b.on_receive([&](const NocMessage&) { ++b_rx; });
  c.on_receive([&](const NocMessage&) { ++c_rx; });
  f.kernel.schedule_at(0, [&] { a.send(msg(-1, 10)); });
  noc.start();
  f.kernel.run_until(milliseconds(1));
  EXPECT_EQ(a_rx, 0);
  EXPECT_EQ(b_rx, 1);
  EXPECT_EQ(c_rx, 1);
}

TEST(CanOverlay, LegacyApiDeliversFrames) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  CanOverlay ca(a), cb(b);
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> rx;
  cb.on_frame(0x123, [&](const OverlayFrame& fr) {
    rx.emplace_back(fr.id, fr.data);
  });
  f.kernel.schedule_at(0, [&] { ca.send(0x123, {0xDE, 0xAD}); });
  noc.start();
  f.kernel.run_until(milliseconds(1));
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].first, 0x123u);
  EXPECT_EQ(rx[0].second, (std::vector<std::uint8_t>{0xDE, 0xAD}));
  EXPECT_EQ(ca.frames_sent(), 1u);
  EXPECT_EQ(cb.frames_received(), 1u);
}

TEST(CanOverlay, IdPriorityPreservedWithinCore) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  CanOverlay ca(a), cb(b);
  std::vector<std::uint32_t> order;
  cb.on_any([&](const OverlayFrame& fr) { order.push_back(fr.id); });
  // Burst in inverted order: the overlay's priority queue restores CAN
  // arbitration order.
  f.kernel.schedule_at(0, [&] {
    ca.send(0x300, {1});
    ca.send(0x100, {2});
    ca.send(0x200, {3});
  });
  noc.start();
  f.kernel.run_until(milliseconds(1));
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0x100, 0x200, 0x300}));
  EXPECT_EQ(cb.order_inversions(), 0u);
}

TEST(CanOverlay, RejectsNonCanParameters) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  CanOverlay ca(a);
  EXPECT_THROW(ca.send(0x800, {1}), std::invalid_argument);
  EXPECT_THROW(ca.send(1, std::vector<std::uint8_t>(9, 0)),
               std::invalid_argument);
}

// --- Idle-slot skipping ------------------------------------------------------

TEST(Noc, IdleTdmaRotationCostsNoEvents) {
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  for (const char* name : {"c0", "c1", "c2", "c3"}) noc.attach(name);
  noc.start();
  f.kernel.run_until(milliseconds(10));
  EXPECT_EQ(f.kernel.events_executed(), 0u);
}

TEST(Noc, OneMessageCostsConstantEventsWhateverTheCoreCount) {
  for (const int cores : {2, 64}) {
    Fixture f;
    Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
    for (int c = 0; c < cores; ++c) noc.attach(std::to_string(c));
    auto& src = *noc.interfaces()[1];
    f.kernel.schedule_at(microseconds(5), [&] { src.send(msg(0, 100)); });
    noc.start();
    f.kernel.run_until(milliseconds(5));
    EXPECT_EQ(noc.messages_delivered(), 1u);
    // The send, the armed slot start and the delivery.
    EXPECT_EQ(f.kernel.events_executed(), 3u) << cores << " cores";
  }
}

TEST(Noc, DeliveryOnTheNextSlotStartRunsThatSlotAfterIt) {
  // a's 125-byte message fills a's slot and lands on b's slot start (10 us).
  // A reply sent from the receive callback still makes b's slot; one sent
  // from a hardware event queued behind the delivery finds the slot passed
  // and waits a period. b's own two full-slot messages, sent while the
  // delivery is pending, go out one per slot.
  for (const bool deferred : {false, true}) {
    Fixture f;
    Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
    auto& a = noc.attach("a");
    auto& b = noc.attach("b");
    std::vector<Time> a_rx;
    a.on_receive([&](const NocMessage&) { a_rx.push_back(f.kernel.now()); });
    b.on_receive([&](const NocMessage& m) {
      if (m.name != "fill") return;
      if (deferred) {
        f.kernel.schedule_at(f.kernel.now(), [&] { b.send(msg(0, 25)); },
                             EventOrder::kHardware);
      } else {
        b.send(msg(0, 25));
      }
    });
    a.send(msg(1, 125, "fill"));
    noc.start();
    f.kernel.run_until(milliseconds(1));
    ASSERT_EQ(a_rx.size(), 1u);
    EXPECT_EQ(a_rx[0], deferred ? microseconds(32) : microseconds(12));
  }
  Fixture f;
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  auto& a = noc.attach("a");
  auto& b = noc.attach("b");
  std::vector<Time> a_rx;
  a.on_receive([&](const NocMessage&) { a_rx.push_back(f.kernel.now()); });
  a.send(msg(1, 125));
  f.kernel.schedule_at(microseconds(5), [&] {
    b.send(msg(0, 125));
    b.send(msg(0, 125));
  });
  noc.start();
  f.kernel.run_until(milliseconds(1));
  EXPECT_EQ(a_rx, (std::vector<Time>{microseconds(20), microseconds(40)}));
}

// --- Equivalence with a rotation that ticks every slot -----------------------

/// A seeded random TDMA traffic script: sends at random instants and at
/// exact slot starts from hardware- and software-ordered events, message
/// sizes that fill a slot exactly (so a delivery lands on the next core's
/// slot start), replies sent from receive callbacks at that instant,
/// priority-queued and broadcast messages, and a babble backlog.
std::uint64_t tdma_script_hash(std::size_t* records) {
  Fixture f;
  TraceHash hash(f.trace);
  Noc noc(f.kernel, f.trace, config(Arbitration::kTdma));
  constexpr int kCores = 4;
  for (const char* name : {"c0", "c1", "c2", "c3"}) noc.attach(name);
  Rng rng(0x70C7D3A);
  // 80 ns per byte, 125 bytes per 10 us slot: 125, 50 + 75 and 62 + 63 fill
  // a slot exactly.
  const std::size_t sizes[] = {25, 50, 62, 63, 75, 100, 125};
  int serial = 0;
  const auto send = [&](int core, std::size_t bytes) {
    NocMessage m;
    m.name = "m";
    m.name += std::to_string(serial++);
    m.bytes = bytes;
    m.destination = static_cast<int>(rng.uniform(-1, kCores - 1));
    if (m.destination == core) m.destination = -1;
    if (rng.chance(0.3)) {
      m.priority = static_cast<std::uint32_t>(rng.uniform(0, 5));
    }
    noc.interfaces()[static_cast<std::size_t>(core)]->send(std::move(m));
  };
  for (int c = 0; c < kCores; ++c) {
    noc.interfaces()[static_cast<std::size_t>(c)]->on_receive(
        [&, c](const NocMessage& m) {
          f.trace.emit(f.kernel.now(), "test.rx", m.name, c);
          if (m.name == "babble" || !rng.chance(0.3)) return;
          // Reply now, or from a hardware event queued behind this delivery.
          const std::size_t bytes = sizes[rng.uniform(0, 6)];
          if (rng.chance(0.5)) {
            send(c, bytes);
          } else {
            f.kernel.schedule_at(f.kernel.now(),
                                 [&send, c, bytes] { send(c, bytes); },
                                 EventOrder::kHardware);
          }
        });
  }
  const Duration slot = noc.config().slot_len;
  const Duration period = kCores * slot;
  const Time horizon = milliseconds(3);
  const auto schedule_sends = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const int core = static_cast<int>(rng.uniform(0, kCores - 1));
      Time when = rng.uniform(0, horizon);
      const auto shape = rng.uniform(0, 2);
      const Time round = rng.uniform(0, horizon / period - 1) * period;
      if (shape == 0) when = round + core * slot;  // own slot start
      if (shape == 1) when = round + rng.uniform(0, kCores - 1) * slot;
      const int burst = static_cast<int>(rng.uniform(1, 2));
      const EventOrder order =
          rng.chance(0.5) ? EventOrder::kHardware : EventOrder::kSoftware;
      f.kernel.schedule_at(
          when,
          [&send, &rng, &sizes, core, burst] {
            for (int b = 0; b < burst; ++b) {
              send(core, sizes[rng.uniform(0, 6)]);
            }
          },
          order);
    }
  };
  schedule_sends(60);
  send(2, 125);  // queued before start()
  noc.inject_babble(1, 120, microseconds(15), microseconds(300),
                    microseconds(900));
  noc.start();
  schedule_sends(60);
  f.kernel.run_until(horizon);
  hash.mix(noc.messages_delivered());
  for (const auto& ni : noc.interfaces()) {
    hash.mix(ni->messages_sent());
    hash.mix(ni->messages_received());
    hash.mix(ni->queue_depth());
  }
  if (records != nullptr) *records = hash.records;
  return hash.h;
}

TEST(Noc, TdmaTrafficScriptMatchesSlotTickingRotation) {
  // Recorded from the rotation that ran one kernel event per TDMA slot;
  // idle-slot skipping must leave the trace bit-identical. If an
  // intentional change to NoC behaviour lands, regenerate the constants
  // with the previous implementation and document the break.
  std::size_t records = 0;
  EXPECT_EQ(tdma_script_hash(&records), 0x34011d71801733faull);
  EXPECT_EQ(records, 1014u);
}

}  // namespace
