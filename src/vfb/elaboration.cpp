#include "vfb/elaboration.hpp"

#include <algorithm>
#include <set>

#include "analysis/frame_packing.hpp"
#include "vfb/rte.hpp"

namespace orte::vfb {

namespace {

class Elaborator {
 public:
  Elaborator(const Composition& model, const DeploymentPlan& plan,
             const ContractMap& contracts)
      : model_(model), plan_(plan), contracts_(contracts) {}

  Elaboration run() {
    std::set<std::string> names;
    for (const auto& [inst, dep] : plan_.instances) {
      // Routes read an empty ECU name as "undeployed".
      if (dep.ecu.empty()) out_.gaps.push_back("unnamed ECU for " + inst);
      names.insert(dep.ecu);
    }
    out_.ecus.assign(names.begin(), names.end());
    for (const auto& inst : model_.instances()) {
      if (plan_.instances.find(inst.name) == plan_.instances.end()) {
        out_.gaps.push_back("no deployment for instance " + inst.name);
      } else if (model_.find_type(inst.type) == nullptr) {
        out_.gaps.push_back("instance " + inst.name + " of unknown type " +
                            inst.type);
      }
    }
    static_cast<RouteTable&>(out_) = expand_routes(model_, &plan_);
    if (plan_.bus_bitrate() <= 0) {
      out_.gaps.push_back("non-positive bus bitrate");
    }
    for (const auto& ecu : out_.ecus) derive_tasks(ecu);
    derive_writers();
    derive_signals();
    pack_pdus();
    derive_monitors();
    derive_heartbeats();
    return std::move(out_);
  }

 private:
  const InstanceDeployment* deployment(const std::string& instance) const {
    const auto it = plan_.instances.find(instance);
    return it == plan_.instances.end() ? nullptr : &it->second;
  }

  /// Summed WCET of the synchronous server operations `r` declares; each
  /// call the generator could not inline is recorded as a gap.
  Duration inlined_wcet(const std::string& instance, const Runnable& r) {
    const auto gap = [&](const std::string& what) {
      out_.gaps.push_back(what + " (instance " + instance + ", runnable " +
                          r.name + ")");
    };
    Duration inlined = 0;
    for (const auto& call : r.server_calls) {
      const auto sep = call.find('.');
      if (sep == std::string::npos) {
        gap("server call must be 'port.operation': " + call);
        continue;
      }
      const std::string port = call.substr(0, sep);
      const std::string op = call.substr(sep + 1);
      const Connector* conn = model_.connection_to(instance, port);
      if (conn == nullptr) {
        gap("server call on unconnected port " + instance + "." + port);
      } else {
        const InstanceDeployment* server = deployment(conn->from_instance);
        if (server == nullptr ||
            server->ecu != deployment(instance)->ecu) {
          gap("cross-ECU server call: " + call);
        }
      }
      const Port* p = find_port(*model_.find_type_of(instance), port);
      const PortInterface* iface =
          p == nullptr ? nullptr : model_.find_interface(p->interface);
      bool found = false;
      if (iface != nullptr) {
        for (const auto& o : iface->operations) {
          if (o.name == op) {
            inlined += o.wcet;
            found = true;
          }
        }
      }
      if (!found) gap("unknown operation in server call: " + call);
    }
    return inlined;
  }

  TaskRunnable task_runnable(std::size_t binding) {
    const Binding& b = out_.bindings[binding];
    const Runnable& r = *b.runnable;
    TaskRunnable tr{&r, binding, inlined_wcet(b.instance, r), r.wcet_bound};
    if (tr.wcet <= 0 && r.execution_time) tr.wcet = r.execution_time();
    tr.wcet += tr.inlined;
    return tr;
  }

  void derive_tasks(const std::string& ecu) {
    struct Group {
      std::string instance;
      Duration period = 0;
      std::vector<TaskRunnable> runnables;
    };
    std::vector<Group> groups;
    std::vector<ElaboratedTask> events;
    for (std::size_t bi = 0; bi < out_.bindings.size(); ++bi) {
      const Binding& b = out_.bindings[bi];
      const InstanceDeployment* dep = deployment(b.instance);
      if (dep == nullptr || dep->ecu != ecu) continue;
      const Runnable& r = *b.runnable;
      switch (r.trigger.kind) {
        case RunnableTrigger::Kind::kTiming: {
          auto git = std::find_if(groups.begin(), groups.end(),
                                  [&](const Group& g) {
                                    return g.instance == b.instance &&
                                           g.period == r.trigger.period;
                                  });
          if (git == groups.end()) {
            groups.push_back(Group{b.instance, r.trigger.period, {}});
            git = groups.end() - 1;
          }
          git->runnables.push_back(task_runnable(bi));
          break;
        }
        case RunnableTrigger::Kind::kDataReceived: {
          ElaboratedTask t;
          t.name = "tk|" + b.instance + "|" + r.name;
          t.ecu = ecu;
          t.instance = b.instance;
          t.priority = plan_.data_task_priority;
          t.runnables.push_back(task_runnable(bi));
          t.wcet = t.runnables.front().wcet;
          events.push_back(std::move(t));
          break;
        }
        case RunnableTrigger::Kind::kInit:
          out_.inits.push_back(InitRunnable{ecu, bi});
          break;
      }
    }

    // Rate-monotonic priorities per ECU: shorter period = higher priority.
    std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
      if (a.period != b.period) return a.period < b.period;
      return a.instance < b.instance;
    });
    if (groups.size() > kMaxPeriodicTasksPerEcu) {
      out_.gaps.push_back("too many periodic tasks on ECU " + ecu);
    }
    const bool tt = plan_.scheduling == SchedulingPolicy::kTimeTriggered;
    int rank = 0;
    for (auto& g : groups) {
      ElaboratedTask t;
      t.name = periodic_task_name(g.instance, g.period);
      t.ecu = ecu;
      t.instance = g.instance;
      t.period = g.period;
      for (const auto& tr : g.runnables) t.wcet += tr.wcet;
      t.priority = kPeriodicBasePriority - rank++;
      t.table_dispatched = tt;
      t.runnables = std::move(g.runnables);
      add_task(std::move(t));
    }
    for (auto& t : events) add_task(std::move(t));
  }

  void add_task(ElaboratedTask t) {
    for (const auto& tr : t.runnables) {
      out_.task_of[{t.instance, tr.runnable->name}] = out_.tasks.size();
      // A data-received runnable is activated by the routes into its trigger.
      const std::string& trigger = out_.bindings[tr.binding].trigger_key;
      for (auto& route : out_.routes) {
        if (!trigger.empty() && route.receiver_key == trigger) {
          route.activates.push_back(out_.tasks.size());
        }
      }
    }
    out_.tasks.push_back(std::move(t));
  }

  /// Which task publishes each written slot: the first writer in task
  /// order — periodic tasks precede event tasks on their ECU, in ascending
  /// period — so the smallest-period timing runnable wins and event-relay
  /// writers root in their event task only when no timing runnable writes.
  void derive_writers() {
    for (std::size_t i = 0; i < out_.tasks.size(); ++i) {
      for (const auto& tr : out_.tasks[i].runnables) {
        const Runnable& r = *tr.runnable;
        if (r.trigger.kind == RunnableTrigger::Kind::kTiming &&
            r.trigger.period <= 0) {
          continue;
        }
        const Binding& b = out_.bindings[tr.binding];
        for (std::size_t a = 0; a < r.accesses.size(); ++a) {
          if (is_write(r.accesses[a].kind)) {
            out_.writer_task.emplace(b.keys[a], i);
          }
        }
      }
    }
  }

  /// Producer period of a sender key, kForever for event-produced or
  /// never-written keys (the PDU grouping and frame-id order key).
  Duration writer_period(const std::string& key) const {
    const auto it = out_.writer_task.find(key);
    if (it == out_.writer_task.end()) return sim::kForever;
    const Duration p = out_.tasks[it->second].period;
    return p > 0 ? p : sim::kForever;
  }

  void derive_signals() {
    for (const auto& conn : model_.connectors()) {
      const InstanceDeployment* from = deployment(conn.from_instance);
      const InstanceDeployment* to = deployment(conn.to_instance);
      const ComponentType* type = model_.find_type_of(conn.from_instance);
      const Port* port =
          type == nullptr ? nullptr : find_port(*type, conn.from_port);
      const PortInterface* iface =
          port == nullptr ? nullptr : model_.find_interface(port->interface);
      if (from != nullptr && to != nullptr && iface != nullptr &&
          iface->kind == PortInterface::Kind::kClientServer &&
          from->ecu != to->ecu) {
        out_.gaps.push_back(
            "client-server connector spans ECUs (unsupported): " +
            conn.from_instance + " -> " + conn.to_instance);
      }
    }
    std::map<std::string_view, std::size_t> signal_of;  // by sender key
    for (std::size_t ri = 0; ri < out_.routes.size(); ++ri) {
      const Route& route = out_.routes[ri];
      if (!route.cross_ecu) continue;
      const auto [it, fresh] =
          signal_of.try_emplace(route.sender_key, out_.signals.size());
      if (fresh) {
        out_.signals.push_back(ElaboratedSignal{"sg|" + route.sender_key,
                                                route.sender_key,
                                                route.from_ecu,
                                                route.element, {}});
      }
      out_.signals[it->second].routes.push_back(ri);
    }
  }

  /// Signals from the same sender ECU with the same producer period share a
  /// frame (period-grouped FFD via the analysis library): every frame pays
  /// header + stuffing overhead once for up to 64 payload bits. Frame ids
  /// follow rate-monotonic order on CAN; FlexRay gets dedicated static slots.
  void pack_pdus() {
    std::map<std::pair<std::string, Duration>, std::vector<std::size_t>>
        by_group;
    for (std::size_t i = 0; i < out_.signals.size(); ++i) {
      const ElaboratedSignal& s = out_.signals[i];
      by_group[{s.sender_ecu, writer_period(s.sender_key)}].push_back(i);
    }
    for (const auto& [key, group] : by_group) {
      std::vector<analysis::PackSignal> pack_in;
      pack_in.reserve(group.size());
      for (const std::size_t si : group) {
        const std::size_t bits = out_.signals[si].element->bit_length;
        if (bits == 0 || bits > 64) {
          out_.gaps.push_back("signal " + out_.signals[si].name +
                              " does not fit a frame");
          continue;
        }
        // pack_signals only needs a positive period for utilization math;
        // event-produced signals (kForever) use a placeholder.
        pack_in.push_back({out_.signals[si].name, bits,
                           key.second == sim::kForever ? sim::seconds(1)
                                                       : key.second});
      }
      // Its bitrate only feeds the utilization figure, which is unused here
      // (and must not divide by a plan's non-positive CAN bitrate).
      const auto packed = analysis::pack_signals(
          pack_in, 64, std::max<std::int64_t>(plan_.can.bitrate_bps, 1));
      for (std::size_t fi = 0; fi < packed.frames.size(); ++fi) {
        const auto& frame = packed.frames[fi];
        ElaboratedPdu pdu;
        pdu.name = "pdu|" + key.first + "|" +
                   std::to_string(key.second == sim::kForever ? -1
                                                              : key.second) +
                   "|" + std::to_string(fi);
        pdu.sender_ecu = key.first;
        pdu.period = key.second == sim::kForever ? 0 : key.second;
        pdu.length_bytes = (frame.used_bits + 7) / 8;
        for (std::size_t k = 0; k < frame.signals.size(); ++k) {
          const auto it = std::find_if(
              group.begin(), group.end(), [&](std::size_t si) {
                return out_.signals[si].name == frame.signals[k];
              });
          pdu.signals.emplace_back(*it, frame.offsets[k]);
        }
        out_.pdus.push_back(std::move(pdu));
      }
    }
    const auto sort_period = [](const ElaboratedPdu& p) {
      return p.period > 0 ? p.period : sim::kForever;
    };
    std::sort(out_.pdus.begin(), out_.pdus.end(),
              [&](const ElaboratedPdu& a, const ElaboratedPdu& b) {
                if (sort_period(a) != sort_period(b)) {
                  return sort_period(a) < sort_period(b);
                }
                return a.name < b.name;
              });
    for (std::size_t i = 0; i < out_.pdus.size(); ++i) {
      out_.pdus[i].frame_id =
          plan_.bus == BusKind::kCan
              ? plan_.can_base_id + static_cast<std::uint32_t>(i)
              : static_cast<std::uint32_t>(i + 1);
    }
    out_.flexray = plan_.flexray;
    out_.flexray.static_slots =
        std::max(out_.flexray.static_slots, out_.pdus.size());
    out_.flexray.static_payload_bytes =
        std::max<std::size_t>(out_.flexray.static_payload_bytes, 8);
  }

  void add_monitor(const std::string& instance, const std::string& flow,
                   auto spec) {
    out_.monitors.push_back(MonitorSpec{instance, flow, std::move(spec)});
  }

  void derive_monitors() {
    // (1) Deadline monitors: one per generated task, bound = the activation
    // period (the implicit AUTOSAR deadline). Event tasks keep a monitor too —
    // deadline-miss records still surface when a budget/deadline is
    // configured.
    for (const auto& t : out_.tasks) {
      rv::DeadlineSpec spec;
      const auto cit = contracts_.find(t.instance);
      spec.contract = cit != contracts_.end() ? cit->second.name : t.name;
      spec.task = t.name;
      spec.deadline = t.period;
      add_monitor(t.instance, {}, std::move(spec));
    }

    for (const auto& [instance, contract] : contracts_) {
      // (2) Arrival monitors: every guarantee with a contracted period
      // watches the instance's own output flow.
      for (const auto& g : contract.guarantees) {
        if (g.timing.period <= 0) continue;
        for (auto& subject : resolve_flow(model_, instance, g.flow)) {
          rv::ArrivalSpec spec;
          spec.contract = contract.name;
          spec.subject = std::move(subject);
          spec.period = g.timing.period;
          spec.jitter = g.timing.jitter;
          spec.confidence = g.confidence;
          add_monitor(instance, g.flow, std::move(spec));
        }
      }
      // (2b) Range monitors, guarantee side: the producer's own writes —
      // the value as the component emitted it, before any transport.
      for (const auto& g : contract.guarantees) {
        if (g.range.unbounded()) continue;
        for (auto& subject : resolve_flow(model_, instance, g.flow)) {
          rv::RangeSpec spec;
          spec.contract = contract.name;
          spec.subject = std::move(subject);
          spec.category = "rte.write";
          spec.range = g.range;
          spec.confidence = g.confidence;
          add_monitor(instance, g.flow, std::move(spec));
        }
      }
      // (2c) Range monitors, assumption side: this instance's receiver slots
      // ("rte.deliver" — the value as it ARRIVED). Violations blame the
      // feeding producer's key, so escalation sanctions the component whose
      // flow went bad (or whose channel corrupted it), never the victim.
      for (const auto& a : contract.assumptions) {
        if (a.range.unbounded()) continue;
        for (const Route* route :
             routes_into(model_, out_.routes, instance, a.flow)) {
          rv::RangeSpec spec;
          spec.contract = contract.name;
          spec.subject = route->receiver_key;
          spec.category = "rte.deliver";
          spec.report_subject = route->sender_key;
          spec.range = a.range;
          spec.confidence = a.confidence;
          add_monitor(instance, a.flow, std::move(spec));
        }
      }
      // (3) Latency monitors: the chain from the feeding producer's write to
      // this instance's consuming runnable activation (named when a
      // data-received runnable exists, disambiguating "rte.runnable").
      for (const auto& a : contract.assumptions) {
        if (a.timing.latency <= 0) continue;
        const Runnable* sink = flow_sink(model_, instance, a.flow);
        for (auto& subject : resolve_flow(model_, instance, a.flow)) {
          rv::LatencySpec spec;
          spec.contract = contract.name;
          spec.source_subject = std::move(subject);
          spec.sink_subject = instance;
          spec.sink_detail = sink != nullptr ? sink->name : std::string();
          spec.bound = a.timing.latency;
          spec.confidence = a.confidence;
          add_monitor(instance, a.flow, std::move(spec));
        }
      }
      // (4) Behavioural contract: one automaton observer per instance, label
      // rules compiled from the flow bindings.
      if (contract.behaviour.has_value()) {
        rv::AutomatonSpec spec;
        spec.contract = contract.name;
        spec.automaton = contract.behaviour->automaton;
        spec.tick = contract.behaviour->tick;
        spec.confidence = contract.behaviour->confidence;
        for (const auto& binding : contract.behaviour->bindings) {
          for (auto& subject : resolve_flow(model_, instance, binding.flow)) {
            spec.labels.push_back({"rte.write", std::move(subject),
                                   binding.label});
          }
        }
        if (!spec.labels.empty()) add_monitor(instance, {}, std::move(spec));
      }
    }
  }

  /// Every periodic guarantee's sender key is one watchdog entity on its
  /// producer's ECU. A key guaranteed at several periods is supervised at the
  /// LARGEST one (the weakest heartbeat every guarantee still implies).
  void derive_heartbeats() {
    std::map<std::pair<std::string, std::string>, Heartbeat> by_key;
    for (const auto& m : out_.monitors) {
      const auto* arrival = std::get_if<rv::ArrivalSpec>(&m.spec);
      if (arrival == nullptr) continue;
      const std::string& key = arrival->subject;
      const InstanceDeployment* dep =
          deployment(key.substr(0, key.find('.')));
      if (dep == nullptr) continue;
      Heartbeat& hb = by_key[{dep->ecu, key}];
      if (arrival->period > hb.period) {
        hb = Heartbeat{dep->ecu, key, arrival->contract, arrival->period};
      }
    }
    for (auto& [_, hb] : by_key) out_.heartbeats.push_back(std::move(hb));
  }

  const Composition& model_;
  const DeploymentPlan& plan_;
  const ContractMap& contracts_;
  Elaboration out_;
};

}  // namespace

std::string periodic_task_name(const std::string& instance, Duration period) {
  return "tk|" + instance + "|" + std::to_string(period);
}

RouteTable expand_routes(const Composition& model,
                         const DeploymentPlan* plan) {
  const auto ecu_of = [plan](const std::string& instance) -> std::string {
    if (plan == nullptr) return {};
    const auto it = plan->instances.find(instance);
    return it == plan->instances.end() ? std::string() : it->second.ecu;
  };
  RouteTable table;
  for (const auto& c : model.connectors()) {
    const PortInterface* iface =
        model.find_sr_interface(c.from_instance, c.from_port);
    if (iface == nullptr) continue;
    const std::string from_ecu = ecu_of(c.from_instance);
    const std::string to_ecu = ecu_of(c.to_instance);
    const bool cross = !from_ecu.empty() && !to_ecu.empty() &&
                       from_ecu != to_ecu;
    for (const auto& elem : iface->elements) {
      table.routes.push_back(
          Route{Rte::key(c.from_instance, c.from_port, elem.name),
                Rte::key(c.to_instance, c.to_port, elem.name), &c, &elem,
                from_ecu, to_ecu, cross, {}});
    }
  }
  for (const auto& inst : model.instances()) {
    const ComponentType* type = model.find_type_of(inst.name);
    if (type == nullptr) continue;
    for (const auto& r : type->runnables) {
      Binding b{inst.name, &r, {}, {}};
      for (const auto& acc : r.accesses) {
        b.keys.push_back(Rte::key(inst.name, acc.port, acc.element));
      }
      if (r.trigger.kind == RunnableTrigger::Kind::kDataReceived) {
        b.trigger_key = Rte::key(inst.name, r.trigger.port, r.trigger.element);
      }
      table.bindings.push_back(std::move(b));
    }
  }
  return table;
}

FlowName split_flow(const std::string& flow) {
  const auto d = flow.find('.');
  if (d == std::string::npos) return {flow, {}};
  return {flow.substr(0, d), flow.substr(d + 1)};
}

const ElaboratedTask* Elaboration::task_for(const std::string& instance,
                                            const std::string& runnable) const {
  const auto it = task_of.find({instance, runnable});
  return it == task_of.end() ? nullptr : &tasks[it->second];
}

Elaboration elaborate(const Composition& model, const DeploymentPlan& plan) {
  return elaborate(model, plan, model.bound_contracts());
}

Elaboration elaborate(const Composition& model, const DeploymentPlan& plan,
                      const ContractMap& contracts) {
  return Elaborator(model, plan, contracts).run();
}

std::vector<std::string> resolve_flow(const Composition& model,
                                      const std::string& instance,
                                      const std::string& flow) {
  // Writes are traced under the *sender* key, so required-port flows
  // resolve through the feeding connector to the producer's key.
  // Unresolvable names yield {} — contracts may mention flows of ports a
  // reduced deployment leaves unconnected, and a monitor on nothing is worse
  // than no monitor.
  const FlowName f = split_flow(flow);
  const Port* p = nullptr;
  const PortInterface* iface = model.find_sr_interface(instance, f.port, &p);
  if (iface == nullptr) return {};
  std::string src_instance = instance;
  std::string src_port = f.port;
  if (p->direction == PortDirection::kRequired) {
    const Connector* conn = model.connection_to(instance, f.port);
    if (conn == nullptr) return {};
    src_instance = conn->from_instance;
    src_port = conn->from_port;
  }
  std::vector<std::string> subjects;
  for (const auto& elem : iface->elements) {
    if (!f.element.empty() && elem.name != f.element) continue;
    subjects.push_back(Rte::key(src_instance, src_port, elem.name));
  }
  return subjects;
}

std::vector<const Route*> routes_into(const Composition& model,
                                      const std::vector<Route>& routes,
                                      const std::string& instance,
                                      const std::string& flow) {
  const FlowName f = split_flow(flow);
  const Port* p = nullptr;
  if (model.find_sr_interface(instance, f.port, &p) == nullptr ||
      p->direction != PortDirection::kRequired) {
    return {};
  }
  const Connector* conn = model.connection_to(instance, f.port);
  std::vector<const Route*> into;
  for (const auto& r : routes) {
    if (r.connector == conn &&
        (f.element.empty() || r.element->name == f.element)) {
      into.push_back(&r);
    }
  }
  return into;
}

const Runnable* flow_sink(const Composition& model,
                          const std::string& instance,
                          const std::string& flow) {
  const ComponentType* type = model.find_type_of(instance);
  if (type == nullptr) return nullptr;
  const FlowName f = split_flow(flow);
  const Runnable* sink = nullptr;
  for (const auto& r : type->runnables) {
    if (r.trigger.kind == RunnableTrigger::Kind::kDataReceived &&
        r.trigger.port == f.port &&
        (f.element.empty() || r.trigger.element == f.element)) {
      sink = &r;
    }
  }
  return sink;
}

}  // namespace orte::vfb
