// FlexRay bus simulator (protocol spec v2.1 structure, frame granularity).
//
// Communication cycle = static segment (TDMA slots, one owner each, state-
// message semantics: the slot buffer holds the latest written value) +
// dynamic segment (mini-slotting: lower frame id = higher priority, a frame
// transmits only if enough minislots remain in this cycle) + network idle
// time. This is the time-triggered comparator in experiments E1/E3 and the
// backbone of the brake-by-wire example.
//
// Slot instants are arithmetic, not a chain of events: cycle n starts at
// start() + n * cycle_len() and static slot k at that plus (k-1) * slot_len.
// The kernel sees one event per cycle start (fr.cycle, cycles()), one per
// occupied static slot, and one per dynamic segment that has a frame to
// send; an idle slot or an empty segment is free. Filling an empty slot
// buffer arms that slot's next start, and queueing a dynamic frame arms the
// next segment start; a slot that starts where the previous slot's frame is
// delivered (or slot 1 at the cycle start, or the dynamic segment after the
// last slot's delivery) runs inside that event instead, so same-instant
// ordering — and hence the trace — matches a bus that ticks every slot
// (DESIGN.md, "TDMA slot loops").
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/bus_stats.hpp"
#include "net/fault_hook.hpp"
#include "net/frame.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace orte::flexray {

using net::Frame;
using sim::Duration;
using sim::Time;

class FlexRayBus;

class FlexRayController : public net::Controller {
 public:
  /// Static frames (id in [1, n_static]) overwrite the slot buffer (state
  /// message semantics); dynamic frames (id > n_static) queue by priority.
  void send(Frame frame) override;

 private:
  friend class FlexRayBus;
  FlexRayController(FlexRayBus& bus, int node) : bus_(&bus), node_(node) {}
  void deliver(const Frame& f) { notify_receive(f); }

  FlexRayBus* bus_;
  int node_;
};

struct FlexRayConfig {
  std::string name = "fr0";
  std::int64_t bitrate_bps = 10'000'000;
  std::size_t static_slots = 16;
  std::size_t static_payload_bytes = 16;  ///< Payload capacity per slot.
  std::size_t minislots = 40;
  Duration minislot_len = sim::microseconds(2);  ///< > 0 when minislots > 0.
  Duration network_idle = sim::microseconds(50);  ///< >= 0.
  /// Controller transmit-buffer depth for dynamic frames; when full, the
  /// lowest-priority pending frame is dropped (real controllers have finite
  /// message RAM — an unbounded backlog would hide a misconfigured system).
  std::size_t dynamic_queue_limit = 64;
};

class FlexRayBus {
 public:
  FlexRayBus(sim::Kernel& kernel, sim::Trace& trace, FlexRayConfig cfg);
  FlexRayBus(const FlexRayBus&) = delete;
  FlexRayBus& operator=(const FlexRayBus&) = delete;

  FlexRayController& attach();

  /// Static slot / cycle lengths implied by a configuration (shared with the
  /// timing analysis in src/analysis so both always agree).
  static Duration slot_length(const FlexRayConfig& cfg);
  static Duration cycle_length(const FlexRayConfig& cfg);

  /// Give a static slot (1-based id) to a node. Unassigned slots stay idle.
  void assign_static_slot(std::uint32_t slot, const FlexRayController& owner);

  /// Begin cycling. Call once after all assignments.
  void start();

  /// Fault injection: the channel goes dark during [from, until) — every
  /// frame scheduled for delivery in the window is lost (wire break, stuck
  /// transceiver). Used by the dual-channel redundancy tests.
  void fail_channel(Time from, Time until) {
    blackout_from_ = from;
    blackout_until_ = until;
  }

  /// Install the fault-injection hook, consulted once per frame at the
  /// delivery point. Drop and in-place corruption are honored; delay is
  /// ignored — the TDMA slot structure pins delivery instants, which is the
  /// containment property the fault campaigns measure. Pass {} to clear.
  void set_fault_hook(net::FaultHook hook) { fault_hook_ = std::move(hook); }

  [[nodiscard]] Duration static_slot_len() const { return static_slot_len_; }
  [[nodiscard]] Duration cycle_len() const { return cycle_len_; }
  [[nodiscard]] std::uint64_t cycles() const { return cycle_count_; }
  [[nodiscard]] const net::BusStats& stats() const { return stats_; }
  [[nodiscard]] const FlexRayConfig& config() const { return cfg_; }
  /// Dynamic frames that could not fit in their cycle and were deferred.
  [[nodiscard]] std::uint64_t dynamic_deferrals() const {
    return dynamic_deferrals_;
  }

 private:
  friend class FlexRayController;

  void submit_static(Frame frame);
  void submit_dynamic(Frame frame);
  /// Mark this cycle's dynamic segment due and arm its start, unless the
  /// last static slot's delivery will run it.
  void arm_dynamic_segment();
  void begin_cycle();
  /// Arm static slot `index` (>= 2) for its next start the bus has not yet
  /// reached, unless the event delivering slot index-1 already covers it.
  void arm_static_slot(std::size_t index);
  void arm_at(std::size_t index, Time when);
  /// The boundary at the start of slot `index` (static_slots + 1 = the
  /// dynamic segment): transmit the buffered frame, if any.
  void run_slot(std::size_t index);
  void begin_dynamic_segment();
  void deliver(Frame frame);

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  FlexRayConfig cfg_;
  Duration bit_time_;
  Duration static_slot_len_;
  Duration dynamic_len_;
  Duration cycle_len_;

  std::vector<std::unique_ptr<FlexRayController>> controllers_;
  /// slot id (1-based) -> owning node, -1 if unassigned.
  std::vector<int> slot_owner_;
  /// Latest value written per static slot (state-message buffer).
  std::vector<std::optional<Frame>> slot_buffer_;
  /// Pending dynamic frames, sorted ascending by id.
  std::deque<Frame> dynamic_queue_;
  /// Armed boundary events per slot index; static_slots + 1 is the dynamic
  /// segment. Unused for slot 1, which always runs inside begin_cycle.
  std::vector<sim::EventHandle> armed_;
  /// The next cycle start: armed by begin_cycle when no dynamic frame is
  /// queued, else (and then again) by the dynamic segment.
  sim::EventHandle next_cycle_;
  /// This cycle's dynamic segment will run (armed, or reached from the
  /// last static slot's delivery).
  bool segment_due_ = false;
  /// Start of the current cycle (one cycle before start() until the first
  /// begin_cycle runs).
  Time cycle_start_ = 0;
  /// Instant of the last slot boundary run; slot instants are distinct, so
  /// this tells whether a slot starting at now() has been passed.
  Time last_boundary_ = -1;
  /// Static slot whose frame is on the wire (0 = none): its delivery runs
  /// the next boundary.
  std::size_t tx_slot_ = 0;

  net::BusStats stats_;
  net::FaultHook fault_hook_;
  std::uint64_t cycle_count_ = 0;
  std::uint64_t dynamic_deferrals_ = 0;
  Time blackout_from_ = sim::kForever;
  Time blackout_until_ = sim::kForever;
  bool started_ = false;
};

}  // namespace orte::flexray
