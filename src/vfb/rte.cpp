#include "vfb/rte.hpp"

#include <stdexcept>

namespace orte::vfb {

namespace {
/// The instance a sender key belongs to (its first segment).
std::string_view instance_of(std::string_view key) {
  return key.substr(0, key.find('.'));
}
}  // namespace

// --- RunnableContext ---------------------------------------------------------

std::uint64_t RunnableContext::read(std::string_view port,
                                    std::string_view element) {
  return rte_->context_read(binding_, port, element);
}

void RunnableContext::write(std::string_view port, std::string_view element,
                            std::uint64_t value) {
  rte_->context_write(binding_, port, element, value);
}

std::uint64_t RunnableContext::call(std::string_view port,
                                    std::string_view operation,
                                    std::uint64_t argument) {
  return rte_->context_call(instance(), port, operation, argument);
}

sim::Time RunnableContext::now() const { return rte_->kernel_.now(); }

// --- Rte ----------------------------------------------------------------------

Rte::Rte(sim::Kernel& kernel, sim::Trace& trace,
         const Composition& composition, std::string ecu_name)
    : kernel_(kernel),
      trace_(trace),
      composition_(composition),
      ecu_name_(std::move(ecu_name)) {}

std::string Rte::key(std::string_view instance, std::string_view port,
                     std::string_view element) {
  std::string k;
  k.reserve(instance.size() + port.size() + element.size() + 2);
  k.append(instance).push_back('.');
  k.append(port).push_back('.');
  k.append(element);
  return k;
}

Rte::SlotId Rte::add_slot(std::string key, const DataElement& element) {
  slots_.push_back(Slot{std::move(key), &element, element.init, {}, {}});
  return static_cast<SlotId>(slots_.size() - 1);
}

Rte::SenderId Rte::add_sender(std::string key) {
  const bool quarantined = is_quarantined(instance_of(key));
  senders_.push_back(Sender{std::move(key), quarantined, {}, nullptr, {}});
  return static_cast<SenderId>(senders_.size() - 1);
}

std::uint32_t Rte::checked(std::uint32_t id, std::size_t size,
                           const char* what) const {
  if (id >= size) {
    throw std::out_of_range(std::string("Rte: ") + what + " ID " +
                            std::to_string(id) + " is not on ECU " +
                            ecu_name_);
  }
  return id;
}

void Rte::add_route(SenderId sender, SlotId slot) {
  senders_[checked(sender, senders_.size(), "sender")].local.push_back(
      checked(slot, slots_.size(), "slot"));
}

void Rte::add_route(SenderId sender, bsw::Com& com, std::string signal) {
  Sender& s = senders_[checked(sender, senders_.size(), "sender")];
  s.com = &com;
  s.signal = std::move(signal);
}

void Rte::on_update(SlotId slot, std::function<void()> cb) {
  slots_[checked(slot, slots_.size(), "slot")].on_update.push_back(
      std::move(cb));
}

Rte::BindingId Rte::bind(std::string instance, const Runnable& runnable,
                         std::vector<std::uint32_t> ids) {
  const auto& accesses = runnable.accesses;
  if (ids.size() != accesses.size()) {
    throw std::invalid_argument("Rte::bind: one ID per declared access");
  }
  Binding b;
  b.instance = std::move(instance);
  b.runnable = &runnable;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    b.first.push_back(static_cast<std::uint32_t>(
        access_of(b, accesses[i].port, accesses[i].element, "")));
    // Reads before the first capture see the slot's init.
    if (is_write(accesses[i].kind)) {
      checked(ids[i], senders_.size(), "sender");
      b.snapshot.push_back(0);
    } else {
      const SlotId slot = checked(ids[i], slots_.size(), "slot");
      b.snapshot.push_back(slots_[slot].value);
    }
  }
  b.ids = std::move(ids);
  b.outbox.resize(accesses.size());
  bindings_.push_back(std::move(b));
  return static_cast<BindingId>(bindings_.size() - 1);
}

void Rte::deliver(SlotId id, std::uint64_t value) {
  Slot& slot = slots_[checked(id, slots_.size(), "slot")];
  const DataElement& element = *slot.element;
  if (element.queued) {
    // Bounded AUTOSAR-style queue; slot.value keeps the init (queued slots
    // are read through the queue, never last-is-best).
    if (element.queue_length > 0 &&
        slot.queue.size() >= element.queue_length) {
      ++overflows_;
      // Detail carries the element name so the record correlates with
      // element-level diagnostics (validator rules V3/V4) without parsing
      // the receiver key.
      trace_.emit(kernel_.now(), "rte.queue_overflow", slot.key,
                  static_cast<std::int64_t>(value), element.name);
      if (element.overflow == QueueOverflow::kReject) {
        return;  // value lost; no data-received activation
      }
      slot.queue.pop_front();  // kDropOldest: displace the head
    }
    slot.queue.push_back(value);
  } else {
    slot.value = value;
  }
  // Receiver-side observation point: the value as it ARRIVED, after any bus
  // transport (and any injected corruption en route). Sender-side monitors
  // watch "rte.write"; assumption-side range monitors watch this record, so
  // in-transit damage is observable even when the producer wrote in-spec.
  trace_.emit(kernel_.now(), "rte.deliver", slot.key,
              static_cast<std::int64_t>(value), element.name);
  for (const auto& cb : slot.on_update) cb();
}

void Rte::capture_implicit(BindingId id) {
  Binding& b = bindings_[id];
  const auto& accesses = b.runnable->accesses;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    if (accesses[i].kind == DataAccessKind::kImplicitRead) {
      b.snapshot[i] = slots_[b.ids[i]].value;
    }
  }
  b.outbox.assign(b.outbox.size(), std::nullopt);
}

void Rte::run_behavior(BindingId id) {
  Binding& b = bindings_[id];
  const Runnable& runnable = *b.runnable;
  trace_.emit(kernel_.now(), "rte.runnable", b.instance, 0, runnable.name);
  if (runnable.behavior) {
    RunnableContext ctx(*this, id, b.instance);
    runnable.behavior(ctx);
  }
  // Publish implicit writes in declaration order.
  for (std::size_t i = 0; i < runnable.accesses.size(); ++i) {
    if (runnable.accesses[i].kind != DataAccessKind::kImplicitWrite) continue;
    if (const auto& value = b.outbox[b.first[i]]) publish(b.ids[i], *value);
  }
  b.outbox.assign(b.outbox.size(), std::nullopt);
}

std::size_t Rte::access_of(const Binding& b, std::string_view port,
                           std::string_view element, const char* what) const {
  const auto& accesses = b.runnable->accesses;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    if (accesses[i].port == port && accesses[i].element == element) return i;
  }
  throw std::logic_error(std::string("undeclared ") + what + " access: " +
                         b.runnable->name + " " + std::string(port) + "." +
                         std::string(element));
}

std::uint64_t Rte::context_read(std::uint32_t binding, std::string_view port,
                                std::string_view element) {
  const Binding& b = bindings_[binding];
  const std::size_t i = access_of(b, port, element, "read");
  if (b.runnable->accesses[i].kind == DataAccessKind::kImplicitRead) {
    return b.snapshot[i];
  }
  Slot& slot = slots_[b.ids[i]];
  if (!slot.element->queued) return slot.value;
  if (slot.queue.empty()) return slot.element->init;
  const std::uint64_t v = slot.queue.front();
  slot.queue.pop_front();
  return v;
}

void Rte::context_write(std::uint32_t binding, std::string_view port,
                        std::string_view element, std::uint64_t value) {
  ++writes_;
  Binding& b = bindings_[binding];
  const std::size_t i = access_of(b, port, element, "write");
  if (b.runnable->accesses[i].kind == DataAccessKind::kImplicitWrite) {
    b.outbox[i] = value;
    return;
  }
  publish(b.ids[i], value);
}

std::uint64_t Rte::context_call(const std::string& instance,
                                std::string_view port,
                                std::string_view operation,
                                std::uint64_t argument) {
  const Connector* conn = composition_.connection_to(instance, port);
  if (conn == nullptr) {
    throw std::logic_error("client-server port not connected: " +
                           instance + "." + std::string(port));
  }
  const auto& server_type = composition_.instance(conn->from_instance).type;
  const auto* handler = composition_.operation_handler(
      server_type, conn->from_port, operation);
  if (handler == nullptr) {
    throw std::logic_error("no handler for operation " +
                           std::string(operation) + " on " + server_type);
  }
  trace_.emit(kernel_.now(), "rte.call", instance, 0, operation);
  return (*handler)(argument);
}

void Rte::quarantine(const std::string& instance) {
  quarantined_.insert(instance);
  for (auto& s : senders_) s.quarantined |= instance_of(s.key) == instance;
}

void Rte::release(const std::string& instance) {
  quarantined_.erase(instance);
  for (auto& s : senders_) s.quarantined &= instance_of(s.key) != instance;
}

bool Rte::is_quarantined(std::string_view instance) const {
  return quarantined_.find(instance) != quarantined_.end();
}

void Rte::publish(SenderId id, std::uint64_t value) {
  const Sender& sender = senders_[id];
  if (write_interceptor_ && !write_interceptor_(sender.key, value)) {
    trace_.emit(kernel_.now(), "rte.fault_drop", sender.key,
                static_cast<std::int64_t>(value));
    return;
  }
  if (sender.quarantined) {
    ++quarantined_drops_;
    trace_.emit(kernel_.now(), "rte.quarantine_drop", sender.key,
                static_cast<std::int64_t>(value));
    return;
  }
  trace_.emit(kernel_.now(), "rte.write", sender.key,
              static_cast<std::int64_t>(value));
  for (const SlotId slot : sender.local) deliver(slot, value);
  if (sender.com != nullptr) sender.com->send_signal(sender.signal, value);
}

}  // namespace orte::vfb
