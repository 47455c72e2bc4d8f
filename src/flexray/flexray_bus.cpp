#include "flexray/flexray_bus.hpp"

#include <algorithm>
#include <stdexcept>

namespace orte::flexray {

namespace {
// FlexRay frame overhead: 5 byte header + 3 byte trailer + action point /
// channel idle margin folded into a constant per-slot guard of 1 us.
constexpr std::int64_t kOverheadBytes = 8;
constexpr Duration kSlotGuard = sim::microseconds(1);
}  // namespace

void FlexRayController::send(Frame frame) {
  frame.source = node_;
  if (frame.id == 0) {
    throw std::invalid_argument("FlexRay frame id must be >= 1");
  }
  if (frame.id <= bus_->cfg_.static_slots) {
    if (frame.size() > bus_->cfg_.static_payload_bytes) {
      throw std::invalid_argument("static frame exceeds slot payload");
    }
    bus_->submit_static(std::move(frame));
  } else {
    bus_->submit_dynamic(std::move(frame));
  }
}

Duration FlexRayBus::slot_length(const FlexRayConfig& cfg) {
  const Duration bit_time = net::bit_time(cfg.bitrate_bps, "FlexRay bitrate");
  return static_cast<Duration>(
             (kOverheadBytes +
              static_cast<std::int64_t>(cfg.static_payload_bytes)) *
             8) *
             bit_time +
         kSlotGuard;
}

Duration FlexRayBus::cycle_length(const FlexRayConfig& cfg) {
  return static_cast<Duration>(cfg.static_slots) * slot_length(cfg) +
         static_cast<Duration>(cfg.minislots) * cfg.minislot_len +
         cfg.network_idle;
}

FlexRayBus::FlexRayBus(sim::Kernel& kernel, sim::Trace& trace,
                       FlexRayConfig cfg)
    : kernel_(kernel),
      trace_(trace),
      cfg_(std::move(cfg)),
      bit_time_(net::bit_time(cfg_.bitrate_bps, "FlexRay bitrate")) {
  if (cfg_.static_slots == 0) {
    throw std::invalid_argument("FlexRay config invalid");
  }
  if (cfg_.network_idle < 0) {
    throw std::invalid_argument("FlexRay network_idle must be >= 0");
  }
  if (cfg_.minislots > 0 && cfg_.minislot_len <= 0) {
    throw std::invalid_argument("FlexRay minislot_len must be positive");
  }
  static_slot_len_ = slot_length(cfg_);
  dynamic_len_ = static_cast<Duration>(cfg_.minislots) * cfg_.minislot_len;
  cycle_len_ = cycle_length(cfg_);
  slot_owner_.assign(cfg_.static_slots + 1, -1);
  slot_buffer_.assign(cfg_.static_slots + 1, std::nullopt);
  armed_.resize(cfg_.static_slots + 2);
}

FlexRayController& FlexRayBus::attach() {
  if (started_) throw std::logic_error("FlexRayBus::attach after start()");
  const int node = static_cast<int>(controllers_.size());
  controllers_.push_back(
      std::unique_ptr<FlexRayController>(new FlexRayController(*this, node)));
  return *controllers_.back();
}

void FlexRayBus::assign_static_slot(std::uint32_t slot,
                                    const FlexRayController& owner) {
  if (slot == 0 || slot > cfg_.static_slots) {
    throw std::invalid_argument("static slot id out of range");
  }
  if (slot_owner_[slot] != -1) {
    throw std::invalid_argument("static slot already assigned");
  }
  slot_owner_[slot] = owner.node_;
}

void FlexRayBus::start() {
  if (started_) throw std::logic_error("FlexRayBus::start called twice");
  started_ = true;
  const Time origin = kernel_.now();
  cycle_start_ = origin - cycle_len_;
  next_cycle_ = kernel_.schedule_at(origin, [this] { begin_cycle(); },
                                    sim::EventOrder::kHardware);
  // Frames buffered before start(): slot 1 runs inside the first
  // begin_cycle, every later occupied slot is armed for its first start.
  for (std::size_t k = 2; k <= cfg_.static_slots; ++k) {
    if (slot_buffer_[k].has_value()) {
      arm_at(k, origin + static_cast<Duration>(k - 1) * static_slot_len_);
    }
  }
}

void FlexRayBus::submit_static(Frame frame) {
  if (slot_owner_[frame.id] != frame.source) {
    throw std::logic_error("node writes a static slot it does not own");
  }
  const std::size_t index = frame.id;
  const bool was_empty = !slot_buffer_[index].has_value();
  slot_buffer_[index] = std::move(frame);  // overwrite: state semantics
  // A full buffer is already armed or covered; slot 1 always runs inside
  // begin_cycle.
  if (was_empty && started_ && index > 1) arm_static_slot(index);
}

void FlexRayBus::arm_static_slot(std::size_t index) {
  if (tx_slot_ + 1 == index) return;  // runs after slot index-1's delivery
  const Time now = kernel_.now();
  Time when =
      cycle_start_ + static_cast<Duration>(index - 1) * static_slot_len_;
  // A write at the slot's exact start makes this cycle only while the slot
  // is still ahead of the writer: not yet run, and the writer ordered no
  // later than the kHardware boundary events of that instant.
  if (when < now ||
      (when == now && (last_boundary_ == now ||
                       kernel_.passed(sim::EventOrder::kHardware)))) {
    when += cycle_len_;
  }
  arm_at(index, when);
}

void FlexRayBus::arm_at(std::size_t index, Time when) {
  armed_[index] = kernel_.schedule_at(
      when, [this, index] { run_slot(index); }, sim::EventOrder::kHardware);
}

void FlexRayBus::submit_dynamic(Frame frame) {
  auto it = std::find_if(
      dynamic_queue_.begin(), dynamic_queue_.end(),
      [&](const Frame& f) { return f.id > frame.id; });
  dynamic_queue_.insert(it, std::move(frame));
  if (dynamic_queue_.size() > cfg_.dynamic_queue_limit) {
    stats_.record_drop();
    trace_.emit(kernel_.now(), "fr.dyn_drop", dynamic_queue_.back().name,
                dynamic_queue_.back().id);
    dynamic_queue_.pop_back();  // shed the lowest-priority frame
  }
  if (!started_ || segment_due_) return;
  // Arm this cycle's segment if its start is still ahead, by the rule that
  // arm_static_slot applies to a slot start; otherwise the next begin_cycle
  // finds the queue non-empty and arms it.
  const Time now = kernel_.now();
  const Time when = cycle_start_ + static_cast<Duration>(cfg_.static_slots) *
                                       static_slot_len_;
  if (when > now ||
      (when == now && last_boundary_ != now &&
       !kernel_.passed(sim::EventOrder::kHardware))) {
    arm_dynamic_segment();
  }
}

void FlexRayBus::arm_dynamic_segment() {
  segment_due_ = true;
  const std::size_t last = cfg_.static_slots;
  // A frame on the wire in the last static slot runs the segment from its
  // delivery. An armed event is cancelled if the last slot transmits first.
  if (tx_slot_ == last) return;
  arm_at(last + 1,
         cycle_start_ + static_cast<Duration>(last) * static_slot_len_);
}

void FlexRayBus::begin_cycle() {
  ++cycle_count_;
  cycle_start_ = kernel_.now();
  trace_.emit(kernel_.now(), "fr.cycle", cfg_.name,
              static_cast<std::int64_t>(cycle_count_));
  segment_due_ = false;
  if (dynamic_queue_.empty()) {
    // No dynamic frame: the segment is not armed, so the cycle start arms
    // the next one itself. A frame queued later in the cycle arms the
    // segment, which then re-arms the next cycle start.
    next_cycle_ = kernel_.schedule_at(
        cycle_start_ + cycle_len_, [this] { begin_cycle(); },
        sim::EventOrder::kHardware);
  } else if (slot_buffer_[cfg_.static_slots].has_value()) {
    segment_due_ = true;  // the last static slot's delivery runs it
  } else {
    arm_dynamic_segment();
  }
  run_slot(1);
}

void FlexRayBus::run_slot(std::size_t index) {
  last_boundary_ = kernel_.now();
  if (index > cfg_.static_slots) {
    if (segment_due_) begin_dynamic_segment();
    return;
  }
  if (!slot_buffer_[index].has_value()) return;  // idle slot: nothing to do
  Frame frame = std::move(*slot_buffer_[index]);
  slot_buffer_[index].reset();
  frame.sent_at = kernel_.now();
  stats_.record_queueing_delay(kernel_.now() - frame.enqueued_at);
  trace_.emit(kernel_.now(), "fr.static_tx", frame.name, frame.id);
  // The next boundary starts where this frame is delivered: it runs after
  // the delivery, not from an event armed earlier.
  kernel_.cancel(armed_[index + 1]);
  tx_slot_ = index;
  kernel_.schedule_at(
      kernel_.now() + static_slot_len_,
      [this, frame = std::move(frame), index]() mutable {
        stats_.record_tx(frame.sent_at, kernel_.now(), true);
        deliver(std::move(frame));
        tx_slot_ = 0;
        run_slot(index + 1);
      },
      sim::EventOrder::kHardware);
}

void FlexRayBus::begin_dynamic_segment() {
  // Mini-slotting: walk the priority-sorted queue; each frame needs
  // ceil(tx_time / minislot) minislots and transmits only if they all fit
  // before the segment ends. Frames that do not fit wait for the next cycle.
  segment_due_ = false;
  const Time segment_end = kernel_.now() + dynamic_len_;
  Time cursor = kernel_.now();
  std::deque<Frame> deferred;
  while (!dynamic_queue_.empty()) {
    Frame frame = std::move(dynamic_queue_.front());
    dynamic_queue_.pop_front();
    const Duration tx_time =
        static_cast<Duration>(
            (kOverheadBytes + static_cast<std::int64_t>(frame.size())) * 8) *
        bit_time_;
    const auto needed_minislots =
        (tx_time + cfg_.minislot_len - 1) / cfg_.minislot_len;
    const Duration needed = needed_minislots * cfg_.minislot_len;
    if (cursor + needed > segment_end) {
      ++dynamic_deferrals_;
      deferred.push_back(std::move(frame));
      continue;
    }
    frame.sent_at = cursor;
    stats_.record_queueing_delay(cursor - frame.enqueued_at);
    trace_.emit(cursor, "fr.dyn_tx", frame.name, frame.id);
    const Time done = cursor + needed;
    kernel_.schedule_at(
        done,
        [this, frame = std::move(frame)]() mutable {
          stats_.record_tx(frame.sent_at, kernel_.now(), true);
          deliver(std::move(frame));
        },
        sim::EventOrder::kHardware);
    cursor = done;
  }
  dynamic_queue_ = std::move(deferred);
  // Next cycle after dynamic segment + network idle time; it replaces the
  // cycle start armed by begin_cycle if the segment was armed mid-cycle.
  kernel_.cancel(next_cycle_);
  next_cycle_ = kernel_.schedule_at(segment_end + cfg_.network_idle,
                                    [this] { begin_cycle(); },
                                    sim::EventOrder::kHardware);
}

void FlexRayBus::deliver(Frame frame) {
  if (kernel_.now() >= blackout_from_ && kernel_.now() < blackout_until_) {
    stats_.record_drop();
    trace_.emit(kernel_.now(), "fr.blackout_drop", frame.name, frame.id);
    return;
  }
  if (fault_hook_) {
    const net::FaultVerdict verdict = fault_hook_(frame);
    if (verdict.drop) {
      stats_.record_drop();
      trace_.emit(kernel_.now(), "fr.fault_drop", frame.name, frame.id);
      return;
    }
    // verdict.delay intentionally ignored: the slot schedule owns timing.
  }
  frame.delivered_at = kernel_.now();
  trace_.emit(kernel_.now(), "fr.rx", frame.name, frame.id);
  for (const auto& c : controllers_) {
    if (c->node_ != frame.source) c->deliver(frame);
  }
}

}  // namespace orte::flexray
