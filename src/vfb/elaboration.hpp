// Elaboration: every decision the system generator makes, made once.
//
// vfb::elaborate() turns a Composition + DeploymentPlan into plain data: the
// ECU list, the route table (every sender-receiver connector element and
// every runnable's data accesses expanded into RTE keys), every generated
// task (name, ECU, priority, period, inlined WCET, time-triggered dispatch,
// runnables), the (instance, runnable) -> task map, the writer task of every
// sender key, the cross-ECU signals packed into PDUs with frame identifiers /
// static slots, and the rv monitor specs and alive heartbeats compiled from
// the bound contracts. It is the one configuration the AUTOSAR methodology
// (§2) carries "up to the generation of executable code":
//  * vfb::System instantiates it (tasks, COM, RTE slots and routes,
//    monitors),
//  * the validator analyses it (V4/V5 task map, V9 tasks, writers and
//    routes, V10 and V13–V15 flow resolution and monitor specs),
// so no consumer re-derives a generator decision. The plan-free analyses
// (V8/V12) read the same route table through expand_routes().
//
// elaborate() is pure and total: it never throws on an invalid model (the
// validator runs on those). What the generator could not instantiate —
// undeployed instances, an unnamed ECU, cross-ECU client-server links,
// unresolvable server calls, too many periodic tasks, a non-positive bus
// bitrate, a signal wider than a frame — is skipped and named in `gaps`; validation rules V1–V5 report each of these first, so
// a non-empty `gaps` after a clean validation is a validator defect.
//
// The elaboration borrows the model's Runnables, Connectors and
// DataElements by pointer: it must not outlive the Composition it was
// elaborated from.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "contracts/contract.hpp"
#include "flexray/flexray_bus.hpp"
#include "rv/monitors.hpp"
#include "vfb/deployment.hpp"
#include "vfb/model.hpp"

namespace orte::vfb {

/// Name of the periodic task hosting `instance`'s runnables of `period`.
[[nodiscard]] std::string periodic_task_name(const std::string& instance,
                                             Duration period);

/// One sender-receiver connector element: where a write to `sender_key` is
/// delivered.
struct Route {
  std::string sender_key;    ///< "rte.write" subject.
  std::string receiver_key;  ///< "rte.deliver" subject.
  const Connector* connector = nullptr;  ///< Source and destination instance.
  const DataElement* element = nullptr;
  std::string from_ecu;  ///< Empty when the source end is undeployed.
  std::string to_ecu;    ///< Empty when the destination end is undeployed.
  bool cross_ecu = false;  ///< Both ends deployed, on different ECUs.
  /// Event tasks (indices into Elaboration::tasks) an update of the receiver
  /// slot activates, in task order; empty without a plan.
  std::vector<std::size_t> activates;
};

/// One runnable of one instance with its data accesses expanded into RTE
/// keys.
struct Binding {
  std::string instance;
  const Runnable* runnable = nullptr;
  /// Per entry of runnable->accesses: the sender key of a write, the
  /// receiver slot key of a read.
  std::vector<std::string> keys;
  /// Receiver slot of a data-received trigger; empty for other triggers.
  std::string trigger_key;
};

/// Routes in connector x element order (connectors whose source port is
/// sender-receiver); bindings in model order, instance x runnable (instances
/// whose type resolves).
struct RouteTable {
  std::vector<Route> routes;
  std::vector<Binding> bindings;
};

/// The one expansion of connector elements and data accesses into RTE keys.
/// With a plan, routes carry their ends' ECUs; without one (V8/V12) they are
/// empty. `activates` is filled by elaborate().
[[nodiscard]] RouteTable expand_routes(const Composition& model,
                                       const DeploymentPlan* plan);

/// One runnable of a generated task.
struct TaskRunnable {
  const Runnable* runnable = nullptr;
  std::size_t binding = 0;  ///< Index into Elaboration::bindings.
  /// Inlined WCET of its synchronous server calls (the RTE executes them in
  /// the caller's context).
  Duration inlined = 0;
  /// Its WCET bound (probing execution_time when none is declared) plus
  /// `inlined`.
  Duration wcet = 0;
};

/// One generated OS task.
struct ElaboratedTask {
  /// "tk|<instance>|<period>" or "tk|<instance>|<runnable>".
  std::string name;
  std::string ecu;
  std::string instance;
  Duration period = 0;  ///< 0 = event task (data-received activation).
  Duration wcet = 0;  ///< Sum of the runnables' WCETs.
  int priority = 0;  ///< Rate-monotonic per ECU, or plan.data_task_priority.
  /// Periodic task dispatched from the synthesized time-triggered table
  /// (SchedulingPolicy::kTimeTriggered): non-preemptive among its peers.
  bool table_dispatched = false;
  std::vector<TaskRunnable> runnables;  ///< In declaration order.
};

/// An init runnable: executed once at start, outside any task.
struct InitRunnable {
  std::string ecu;
  std::size_t binding = 0;  ///< Index into Elaboration::bindings.
};

/// One cross-ECU data element carried as a COM signal.
struct ElaboratedSignal {
  std::string name;        ///< COM signal name, "sg|<sender key>".
  std::string sender_key;  ///< Rte sender key ("rte.write" subject).
  std::string sender_ecu;
  const DataElement* element = nullptr;  ///< Width, init, queue semantics.
  /// The cross-ECU routes it carries (indices into Elaboration::routes).
  std::vector<std::size_t> routes;
};

/// One I-PDU: signals of one sender ECU and producer period, packed.
struct ElaboratedPdu {
  std::string name;
  std::string sender_ecu;
  Duration period = 0;         ///< Producer period; 0 = event-produced.
  std::uint32_t frame_id = 0;  ///< CAN identifier, or FlexRay static slot.
  std::size_t length_bytes = 0;
  /// (index into Elaboration::signals, bit offset).
  std::vector<std::pair<std::size_t, std::size_t>> signals;
};

/// One rv monitor the generator registers.
struct MonitorSpec {
  /// Instance the compiling contract is bound to (deadline monitors: the
  /// task's instance).
  std::string instance;
  /// Contract flow the spec was compiled from; empty for deadline and
  /// automaton monitors.
  std::string flow;
  std::variant<rv::DeadlineSpec, rv::ArrivalSpec, rv::RangeSpec,
               rv::LatencySpec, rv::AutomatonSpec>
      spec;
};

/// One watchdog-supervised sender key (DeploymentPlan::alive_supervision).
struct Heartbeat {
  std::string ecu;       ///< The producer's ECU.
  std::string key;       ///< Supervised sender key.
  std::string contract;  ///< Guaranteeing contract ("alive" violations).
  Duration period = 0;   ///< Largest guaranteed period of the key.
};

/// The route table is expand_routes() with the plan, `activates` filled.
struct Elaboration : RouteTable {
  std::vector<std::string> ecus;  ///< Sorted; also the bus attach order.
  /// Per ECU (in `ecus` order): periodic tasks by (period, instance), then
  /// event tasks in model order.
  std::vector<ElaboratedTask> tasks;
  std::vector<InitRunnable> inits;  ///< Per ECU, in model order.
  /// (instance, runnable name) -> index of the hosting task.
  std::map<std::pair<std::string, std::string>, std::size_t> task_of;
  /// Sender key -> index of the task that publishes it: the smallest-period
  /// timing writer, else the first data-received (relay) writer.
  std::map<std::string, std::size_t, std::less<>> writer_task;
  std::vector<ElaboratedSignal> signals;
  std::vector<ElaboratedPdu> pdus;  ///< Frame-identifier order.
  /// The plan's FlexRay configuration as the generator builds the bus: at
  /// least one static slot per PDU, at least 8 payload bytes per slot.
  flexray::FlexRayConfig flexray;
  /// rv monitors in registration order: one deadline monitor per task, then
  /// per bound contract its arrival, guarantee-range, assumption-range,
  /// latency and automaton monitors. Latency specs carry static_bound 0; the
  /// system stamps the V9 bound in.
  std::vector<MonitorSpec> monitors;
  std::vector<Heartbeat> heartbeats;  ///< Sorted by (ECU, key).
  /// What the generator could not instantiate (see the file comment).
  std::vector<std::string> gaps;

  /// The task hosting (instance, runnable), or null (init runnables,
  /// undeployed instances).
  [[nodiscard]] const ElaboratedTask* task_for(
      const std::string& instance, const std::string& runnable) const;
};

using ContractMap = std::map<std::string, contracts::Contract, std::less<>>;

/// Elaborate with the contracts bound on the model.
[[nodiscard]] Elaboration elaborate(const Composition& model,
                                    const DeploymentPlan& plan);
/// Elaborate with an explicit contract map (the validator's, which may carry
/// contracts bound through Validator::with_contract).
[[nodiscard]] Elaboration elaborate(const Composition& model,
                                    const DeploymentPlan& plan,
                                    const ContractMap& contracts);

/// A contract flow name split into port and element ("" = every element).
struct FlowName {
  std::string port;
  std::string element;
};
[[nodiscard]] FlowName split_flow(const std::string& flow);

/// Sender keys ("rte.write" subjects) a contract flow of `instance` resolves
/// to. Flow names are "port" (every element) or "port.element"; required-port
/// flows resolve through the feeding connector to the producer's key. Empty
/// when the flow names nothing routable.
[[nodiscard]] std::vector<std::string> resolve_flow(const Composition& model,
                                                    const std::string& instance,
                                                    const std::string& flow);

/// The routes feeding a required-port flow of `instance` through the port's
/// connector, in element order: the producer's sender key (also the blame
/// target) and this instance's receiver slot key ("rte.deliver" subject) of
/// each. Empty for provided-port or unconnected flows.
[[nodiscard]] std::vector<const Route*> routes_into(
    const Composition& model, const std::vector<Route>& routes,
    const std::string& instance, const std::string& flow);

/// The data-received runnable a contract flow of `instance` activates (the
/// last declared match), or null: the tail of a latency chain.
[[nodiscard]] const Runnable* flow_sink(const Composition& model,
                                        const std::string& instance,
                                        const std::string& flow);

}  // namespace orte::vfb
