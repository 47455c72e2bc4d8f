// Per-ECU Runtime Environment: "the run-time implementation of the Virtual
// Functional Bus on a specific ECU" (§2).
//
// The RTE routes every port write to its connected receivers: same-ECU
// connections become in-memory copies (plus data-received activations),
// cross-ECU connections become COM signal transmissions. Like a generated
// AUTOSAR RTE it is static: System binds every slot, sender and runnable
// access to a dense ID at build time, so reads, writes and deliveries index
// vectors instead of looking names up. It also implements the two AUTOSAR
// access semantics:
//  * implicit — a runnable sees a stable snapshot taken when it starts and
//    publishes its outputs only when it completes,
//  * explicit — reads/writes touch the live values immediately.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bsw/com.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "vfb/model.hpp"

namespace orte::vfb {

class Rte;

/// The API surface a runnable's behavior sees (Rte_Read/Rte_Write/Rte_Call).
class RunnableContext {
 public:
  /// Read a data element through a required port. Implicit accesses return
  /// the snapshot captured at runnable start; queued elements pop FIFO.
  std::uint64_t read(std::string_view port, std::string_view element);
  /// Write a data element through a provided port. Implicit accesses are
  /// published at runnable completion; explicit ones immediately.
  void write(std::string_view port, std::string_view element,
             std::uint64_t value);
  /// Synchronous client-server call through a required port.
  std::uint64_t call(std::string_view port, std::string_view operation,
                     std::uint64_t argument);
  [[nodiscard]] sim::Time now() const;
  [[nodiscard]] const std::string& instance() const { return *instance_; }

 private:
  friend class Rte;
  RunnableContext(Rte& rte, std::uint32_t binding, const std::string& instance)
      : rte_(&rte), binding_(binding), instance_(&instance) {}

  Rte* rte_;
  std::uint32_t binding_;
  const std::string* instance_;
};

class Rte {
 public:
  /// Dense IDs the System generator binds at build time; every runtime
  /// access indexes a vector with them.
  using SlotId = std::uint32_t;     ///< A receiver slot.
  using SenderId = std::uint32_t;   ///< A sender key ("rte.write" subject).
  using BindingId = std::uint32_t;  ///< One (instance, runnable) pair.

  Rte(sim::Kernel& kernel, sim::Trace& trace, const Composition& composition,
      std::string ecu_name);
  Rte(const Rte&) = delete;
  Rte& operator=(const Rte&) = delete;

  /// The RTE key of (instance, port, element): "instance.port.element".
  static std::string key(std::string_view instance, std::string_view port,
                         std::string_view element);

  // --- Wiring (called by the System generator) ------------------------------
  // Every slot and sender ID passed in below (and to deliver) must come from
  // this Rte's add_slot / add_sender; others throw std::out_of_range.
  /// A receiver slot under `key` ("rte.deliver" subject) holding
  /// `element.init` until the first delivery. Queued elements keep a queue
  /// bounded by element.queue_length (0 = unbounded) with element.overflow
  /// full-queue semantics. `element`, like a bound runnable, is borrowed
  /// and must outlive the Rte.
  SlotId add_slot(std::string key, const DataElement& element);
  /// A sender key; its instance is the key's first segment (quarantine).
  SenderId add_sender(std::string key);
  /// Same-ECU route: writes to `sender` are delivered to `slot`, after the
  /// slots routed before it.
  void add_route(SenderId sender, SlotId slot);
  /// Cross-ECU route: writes to `sender` go out as COM signal `signal`,
  /// after every same-ECU delivery.
  void add_route(SenderId sender, bsw::Com& com, std::string signal);
  /// Run `cb` whenever `slot` is updated (data-received activation).
  void on_update(SlotId slot, std::function<void()> cb);
  /// Bind `runnable` of `instance`: `ids[i]` is the sender (write) or slot
  /// (read) of runnable.accesses[i].
  BindingId bind(std::string instance, const Runnable& runnable,
                 std::vector<std::uint32_t> ids);
  /// Delivery into a slot (local routes and the COM rx side).
  void deliver(SlotId slot, std::uint64_t value);

  // --- Execution (called from generated task segments) ----------------------
  /// Snapshot all implicit-read accesses of the runnable (segment start).
  void capture_implicit(BindingId binding);
  /// Execute the behavior and publish implicit writes (segment end).
  void run_behavior(BindingId binding);

  // --- Fault injection (fi layer) --------------------------------------------
  /// Interceptor over every outbound port write, consulted at the publish
  /// choke point BEFORE quarantine filtering and routing. It may rewrite the
  /// value in place (corruption, stuck-at) or return false to swallow the
  /// write entirely (fail-silent crash) — swallowed writes are traced as
  /// "rte.fault_drop". One interceptor per RTE; pass {} to clear.
  using WriteInterceptor =
      std::function<bool(std::string_view sender_key, std::uint64_t& value)>;
  void intercept_writes(WriteInterceptor hook) {
    write_interceptor_ = std::move(hook);
  }

  // --- Health management (graceful degradation, §1/§4) -----------------------
  /// Quarantine an instance: its port writes are dropped at the RTE instead
  /// of propagating (local routes and COM transmissions alike), so receivers
  /// keep their last good value / init — the "fail silent at the component
  /// boundary" containment reaction. Each drop emits an "rte.quarantine_drop"
  /// trace record. Reads, calls, and already-delivered values are unaffected.
  void quarantine(const std::string& instance);
  /// Lift a quarantine (e.g. after a recovery mode transition).
  void release(const std::string& instance);
  [[nodiscard]] bool is_quarantined(std::string_view instance) const;
  /// Writes suppressed by quarantine since construction.
  [[nodiscard]] std::uint64_t quarantined_drops() const {
    return quarantined_drops_;
  }

  // --- Introspection ---------------------------------------------------------
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  /// Values lost to full receiver queues (rejected or displaced).
  [[nodiscard]] std::uint64_t overflows() const { return overflows_; }
  [[nodiscard]] const std::string& ecu_name() const { return ecu_name_; }

 private:
  friend class RunnableContext;

  struct Slot {
    std::string key;
    /// Init, queue semantics and the trace detail (the element's name).
    const DataElement* element = nullptr;
    std::uint64_t value = 0;  ///< Last-is-best slots only; init for queued.
    std::deque<std::uint64_t> queue;
    std::vector<std::function<void()>> on_update;
  };
  struct Sender {
    std::string key;
    bool quarantined = false;
    std::vector<SlotId> local;  ///< Same-ECU receivers, in route order.
    bsw::Com* com = nullptr;    ///< Cross-ECU signal, if any.
    std::string signal;
  };
  struct Binding {
    std::string instance;
    const Runnable* runnable = nullptr;
    /// Per declared access: its slot or sender, and the first access naming
    /// the same (port, element) — the one a read or write resolves to.
    std::vector<std::uint32_t> ids;
    std::vector<std::uint32_t> first;
    std::vector<std::uint64_t> snapshot;  ///< Implicit reads, per access.
    std::vector<std::optional<std::uint64_t>> outbox;  ///< Implicit writes.
  };

  /// `id` if it is below `size` (the ID table of `what`); throws
  /// std::out_of_range otherwise.
  std::uint32_t checked(std::uint32_t id, std::size_t size,
                        const char* what) const;
  /// Index of the first declared access of (port, element); throws for an
  /// undeclared one.
  std::size_t access_of(const Binding& b, std::string_view port,
                        std::string_view element, const char* what) const;
  std::uint64_t context_read(std::uint32_t binding, std::string_view port,
                             std::string_view element);
  void context_write(std::uint32_t binding, std::string_view port,
                     std::string_view element, std::uint64_t value);
  std::uint64_t context_call(const std::string& instance,
                             std::string_view port, std::string_view operation,
                             std::uint64_t argument);
  void publish(SenderId sender, std::uint64_t value);

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  const Composition& composition_;
  std::string ecu_name_;

  std::vector<Slot> slots_;
  std::vector<Sender> senders_;
  std::vector<Binding> bindings_;

  std::set<std::string, std::less<>> quarantined_;
  WriteInterceptor write_interceptor_;

  std::uint64_t writes_ = 0;
  std::uint64_t overflows_ = 0;
  std::uint64_t quarantined_drops_ = 0;
};

}  // namespace orte::vfb
