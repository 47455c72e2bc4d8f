#include "validation/flow_analysis.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/holistic.hpp"

namespace orte::validation {

namespace {

using contracts::Contract;
using contracts::FlowSpec;
using contracts::Interval;
using sim::Duration;
using vfb::ComponentType;
using vfb::Connector;
using vfb::DeploymentPlan;
using vfb::Runnable;
using vfb::RunnableTrigger;

using ContractMap = std::map<std::string, Contract, std::less<>>;

std::string dot(std::string_view a, std::string_view b) {
  return std::string(a) + "." + std::string(b);
}

std::string interval_str(const Interval& r) {
  return "[" + std::to_string(r.lo) + ", " + std::to_string(r.hi) + "]";
}

// ---------------------------------------------------------------------------
// V8 / V12: slot dataflow graph with abstract interval propagation.
// ---------------------------------------------------------------------------

/// Abstract value of one slot: Bottom (no dynamic data ever reaches it),
/// an interval hull, or Top (reached by an unconstrained source).
struct AbsVal {
  enum class Kind { kBottom, kInterval, kTop };
  Kind kind = Kind::kBottom;
  Interval iv{0, 0};
  std::string origin;  ///< Human-readable provenance for messages.

  static AbsVal bottom() { return {}; }
  static AbsVal top(std::string origin) {
    return {Kind::kTop, {0, 0}, std::move(origin)};
  }
  static AbsVal interval(Interval iv, std::string origin) {
    return {Kind::kInterval, iv, std::move(origin)};
  }

  bool operator==(const AbsVal& o) const {
    return kind == o.kind && (kind != Kind::kInterval || iv == o.iv);
  }
};

AbsVal join(const AbsVal& a, const AbsVal& b) {
  using K = AbsVal::Kind;
  if (a.kind == K::kBottom) return b;
  if (b.kind == K::kBottom) return a;
  if (a.kind == K::kTop) return a;
  if (b.kind == K::kTop) return b;
  AbsVal out = a;
  out.iv.lo = std::min(a.iv.lo, b.iv.lo);
  out.iv.hi = std::max(a.iv.hi, b.iv.hi);
  return out;
}

/// Interval fixpoint over the graph. Monotone in the (Bottom < intervals <
/// Top) lattice with hull joins over the finite set of guarantee endpoints,
/// so it converges.
std::map<std::string, AbsVal> propagate_ranges(const ContractMap& contracts,
                                               const FlowGraph& g) {
  std::map<std::string, AbsVal> val;
  const auto get = [&](const std::string& key) -> AbsVal {
    const auto it = val.find(key);
    return it == val.end() ? AbsVal::bottom() : it->second;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    const auto raise = [&](const std::string& key, const AbsVal& v) {
      AbsVal next = join(get(key), v);
      if (!(next == get(key))) {
        val[key] = std::move(next);
        changed = true;
      }
    };
    for (const auto& rf : g.runnables) {
      const auto cit = contracts.find(rf.instance);
      for (std::size_t i = 0; i < rf.writes.size(); ++i) {
        // A direct guarantee on the written flow is authoritative (the
        // component promises the range regardless of what it reads — V7
        // checks the adjacent links); otherwise the write relays the hull
        // of everything the runnable reads, and a read-free writer is an
        // unconstrained source.
        const FlowSpec* guarantee =
            cit == contracts.end()
                ? nullptr
                : flow_of(cit->second, rf.write_ports[i].first,
                          rf.write_ports[i].second, /*assume=*/false);
        if (guarantee != nullptr && !guarantee->range.unbounded()) {
          raise(rf.writes[i],
                AbsVal::interval(guarantee->range,
                                 "guarantee " + cit->second.name + "." +
                                     guarantee->flow));
          continue;
        }
        if (rf.reads.empty()) {
          raise(rf.writes[i],
                AbsVal::top("unconstrained writer " +
                            dot(rf.instance, rf.runnable->name)));
          continue;
        }
        AbsVal relay = AbsVal::bottom();
        for (const auto& read : rf.reads) relay = join(relay, get(read));
        if (relay.kind != AbsVal::Kind::kBottom) raise(rf.writes[i], relay);
      }
    }
    for (const auto& e : g.edges) raise(e.receiver_key, get(e.sender_key));
  }
  return val;
}

// ---------------------------------------------------------------------------
// V9: holistic fixpoint over the elaborated tasks.
// ---------------------------------------------------------------------------

/// One activation edge of the generated system: the writer's task to a
/// data-received consumer, carried by the bus (cross-ECU) or directly
/// (same ECU).
struct ChainEdge {
  std::string sender_key;  ///< Producing slot (sender ECU side).
  std::string from_task;
  std::string to_task;  ///< Empty = delivered but no event task.
  std::string to_ecu;
  bool cross_ecu = false;
  Duration sort_period = sim::kForever;  ///< Writer's period, for frame ids.
};

std::vector<ChainEdge> derive_edges(const vfb::Composition& model,
                                    const vfb::Elaboration& elab) {
  std::vector<ChainEdge> edges;
  std::set<std::tuple<std::string, std::string, std::string>> seen;
  for (const auto& route : elab.routes) {
    if (route.from_ecu.empty() || route.to_ecu.empty() ||
        model.find_type_of(route.connector->to_instance) == nullptr) {
      continue;
    }
    const auto wit = elab.writer_task.find(route.sender_key);
    if (wit == elab.writer_task.end()) continue;  // never written (V3)
    const vfb::ElaboratedTask& writer = elab.tasks[wit->second];
    // Rate-monotonic frame order by the writer's period.
    const Duration sort_period =
        writer.period > 0 ? writer.period : sim::kForever;
    // Consuming event tasks of this element on the receiver.
    for (const std::size_t ti : route.activates) {
      const std::string& consumer = elab.tasks[ti].name;
      if (seen.insert({route.sender_key, writer.name, consumer}).second) {
        edges.push_back(ChainEdge{route.sender_key, writer.name, consumer,
                                  route.to_ecu, route.cross_ecu,
                                  sort_period});
      }
    }
    // Cross-ECU delivery without an event consumer still loads the bus.
    if (route.cross_ecu && route.activates.empty() &&
        seen.insert({route.sender_key, writer.name, "ecu:" + route.to_ecu})
            .second) {
      edges.push_back(ChainEdge{route.sender_key, writer.name, {},
                                route.to_ecu, true, sort_period});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const ChainEdge& a, const ChainEdge& b) {
              if (a.cross_ecu != b.cross_ecu) return a.cross_ecu > b.cross_ecu;
              if (a.sort_period != b.sort_period) {
                return a.sort_period < b.sort_period;
              }
              if (a.sender_key != b.sender_key) {
                return a.sender_key < b.sender_key;
              }
              return a.to_task < b.to_task;
            });
  return edges;
}

}  // namespace

FlowGraph build_flow_graph(const vfb::RouteTable& table) {
  FlowGraph g;
  for (const auto& b : table.bindings) {
    RunnableFlow rf;
    rf.instance = b.instance;
    rf.runnable = b.runnable;
    for (std::size_t a = 0; a < b.keys.size(); ++a) {
      const vfb::DataAccess& acc = b.runnable->accesses[a];
      if (vfb::is_write(acc.kind)) {
        rf.writes.push_back(b.keys[a]);
        rf.write_ports.emplace_back(acc.port, acc.element);
        g.written.insert(b.keys[a]);
      } else {
        rf.reads.push_back(b.keys[a]);
      }
    }
    if (!b.trigger_key.empty()) rf.reads.push_back(b.trigger_key);
    g.runnables.push_back(std::move(rf));
  }
  g.edges = table.routes;
  return g;
}

const FlowSpec* flow_of(const Contract& c, const std::string& port,
                        const std::string& element, bool assume) {
  const std::string qualified = port + "." + element;
  const FlowSpec* f = assume ? c.assumption(qualified) : c.guarantee(qualified);
  if (f == nullptr) f = assume ? c.assumption(port) : c.guarantee(port);
  return f;
}

bool has_latency_assumptions(const ContractMap& contracts) {
  for (const auto& [_, contract] : contracts) {
    for (const auto& a : contract.assumptions) {
      if (a.timing.latency > 0) return true;
    }
  }
  return false;
}

ChainAnalysis analyze_chains(const vfb::Composition& model,
                             const DeploymentPlan& plan,
                             const ContractMap& contracts) {
  return analyze_chains(model, plan, vfb::elaborate(model, plan, contracts),
                        contracts);
}

ChainAnalysis analyze_chains(const vfb::Composition& model,
                             const DeploymentPlan& plan,
                             const vfb::Elaboration& elab,
                             const ContractMap& contracts) {
  ChainAnalysis out;
  const std::vector<ChainEdge> edges = derive_edges(model, elab);

  // Periods must be derivable: chain heads carry their own, everything else
  // inherits through the edges. Tasks that stay period-free (event tasks
  // nothing ever activates — V3/V12 territory) are excluded from the model.
  std::map<std::string, Duration> period;
  for (const auto& t : elab.tasks) period[t.name] = t.period;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& e : edges) {
      if (e.to_task.empty()) continue;
      const Duration src = period.at(e.from_task);
      Duration& dst = period.at(e.to_task);
      if (src > 0 && (dst <= 0 || src < dst)) {
        dst = src;
        changed = true;
      }
    }
  }
  std::set<std::string> included;
  analysis::HolisticModel holistic;
  for (const auto& t : elab.tasks) {
    if (period.at(t.name) <= 0) continue;
    included.insert(t.name);
    holistic.add_task({.name = t.name, .ecu = t.ecu, .wcet = t.wcet,
                       .period = t.period, .priority = t.priority});
  }
  std::uint32_t next_id = plan.can_base_id;
  std::map<std::string, std::vector<std::string>> msgs_of_sender;
  for (const auto& e : edges) {
    if (!included.count(e.from_task)) continue;
    if (!e.to_task.empty() && !included.count(e.to_task)) continue;
    if (e.cross_ecu) {
      // Unpacked, one message per edge at the CAN maximum payload: more
      // frames than the generator's PDU packing emits, so the bound can
      // only be conservative.
      analysis::DistMessage m;
      m.name = "msg|" + e.sender_key + "|" +
               (e.to_task.empty() ? e.to_ecu : e.to_task);
      m.id = next_id++;
      m.bytes = 8;
      m.from_task = e.from_task;
      m.to_task = e.to_task;
      msgs_of_sender[e.sender_key].push_back(m.name);
      holistic.add_message(std::move(m));
    } else if (!e.to_task.empty()) {
      holistic.add_dependency(e.from_task, e.to_task);
    }
  }

  analysis::BusSpec bus;
  if (plan.bus == vfb::BusKind::kCan) {
    bus.can_bitrate_bps = plan.can.bitrate_bps;
  } else {
    // The FlexRay configuration the generator builds; the holistic model
    // grows the slot count further to one slot per message.
    bus.use_flexray = true;
    bus.flexray = elab.flexray;
  }
  // A non-positive bitrate (V5) leaves the bus untimed: nothing is bounded.
  analysis::HolisticResult result;
  if (plan.bus_bitrate() > 0) result = holistic.analyze(bus);
  out.schedulable = result.schedulable;
  out.iterations = result.iterations;

  // One bound per latency assumption of every bound contract.
  for (const auto& [instance, contract] : contracts) {
    for (const auto& a : contract.assumptions) {
      if (a.timing.latency <= 0) continue;
      ChainBound cb;
      cb.contract = contract.name;
      cb.instance = instance;
      cb.flow = a.flow;
      cb.deadline = a.timing.latency;
      // The chain tail: the event task of the data-received runnable this
      // flow activates (the LatencyMonitor's sink).
      if (const Runnable* sink = vfb::flow_sink(model, instance, a.flow)) {
        const vfb::ElaboratedTask* t = elab.task_for(instance, sink->name);
        if (t != nullptr) cb.sink_task = t->name;
      }
      if (result.schedulable) {
        if (!cb.sink_task.empty() && included.count(cb.sink_task)) {
          cb.bound = result.task_response.at(cb.sink_task);
          cb.computable = true;
        } else if (cb.sink_task.empty()) {
          // No event consumer: the obligation ends at delivery (cross-ECU)
          // or at the producer's publication (same ECU).
          Duration worst = 0;
          bool found = false;
          for (const auto& subject :
               vfb::resolve_flow(model, instance, a.flow)) {
            const auto mit = msgs_of_sender.find(subject);
            if (mit != msgs_of_sender.end()) {
              for (const auto& mname : mit->second) {
                worst = std::max(worst, result.message_response.at(mname));
                found = true;
              }
              continue;
            }
            const auto wit = elab.writer_task.find(subject);
            if (wit == elab.writer_task.end()) continue;
            const std::string& writer = elab.tasks[wit->second].name;
            if (included.count(writer)) {
              worst = std::max(worst, result.task_response.at(writer));
              found = true;
            }
          }
          cb.bound = worst;
          cb.computable = found;
        }
      }
      out.bounds.push_back(std::move(cb));
    }
  }
  return out;
}

void check_flow_ranges(const vfb::Composition& model,
                       const vfb::RouteTable& table,
                       const ContractMap& contracts, Diagnostics& out) {
  const FlowGraph g = build_flow_graph(table);
  const std::map<std::string, AbsVal> val =
      propagate_ranges(contracts, g);
  const auto value = [&](const std::string& key) -> AbsVal {
    const auto it = val.find(key);
    return it == val.end() ? AbsVal::bottom() : it->second;
  };

  // --- V8: every constrained assumption against the propagated hull -------
  for (const auto& [instance, contract] : contracts) {
    for (const auto& a : contract.assumptions) {
      if (a.range.unbounded()) continue;
      // Unconnected: V3's finding, nothing flows.
      for (const vfb::Route* e :
           vfb::routes_into(model, g.edges, instance, a.flow)) {
        // A direct guarantee on the feeding flow is V7's jurisdiction — V8
        // only reports what the pairwise check cannot see.
        const Connector& conn = *e->connector;
        const auto pit = contracts.find(conn.from_instance);
        if (pit != contracts.end() &&
            flow_of(pit->second, conn.from_port, e->element->name,
                    /*assume=*/false) != nullptr) {
          continue;
        }
        const AbsVal v = value(e->receiver_key);
        const std::string& subject = e->receiver_key;
        switch (v.kind) {
          case AbsVal::Kind::kBottom:
            break;  // nothing dynamic arrives: V3/V12 territory
          case AbsVal::Kind::kTop:
            out.add("V8", Severity::kWarning, subject,
                    "assumption range " + interval_str(a.range) +
                        " cannot be established: the transitive source is "
                        "unconstrained (" + v.origin + ")",
                    "add a range guarantee to the producing component's "
                    "contract");
            break;
          case AbsVal::Kind::kInterval:
            if (v.iv.hi < a.range.lo || v.iv.lo > a.range.hi) {
              out.add("V8", Severity::kError, subject,
                      "transitive value range " + interval_str(v.iv) +
                          " (via " + v.origin +
                          ") can never satisfy assumption " +
                          interval_str(a.range),
                      "the chain delivers values outside the assumed window; "
                      "fix the source guarantee or the assumption");
            } else if (!a.range.contains(v.iv)) {
              out.add("V8", Severity::kWarning, subject,
                      "transitive value range " + interval_str(v.iv) +
                          " (via " + v.origin + ") may exceed assumption " +
                          interval_str(a.range),
                      "tighten the upstream guarantees or widen the "
                      "assumption");
            }
            break;
        }
      }
    }
  }

  // --- V12: liveness on the same graph ------------------------------------
  // Forward: can a slot's value ever change after init? Autonomous writers
  // (no reads) produce; relays produce iff some input does.
  std::map<std::string, bool> productive;
  const auto prod = [&](const std::string& key) {
    const auto it = productive.find(key);
    return it != productive.end() && it->second;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    const auto raise = [&](const std::string& key, bool v) {
      if (v && !prod(key)) {
        productive[key] = true;
        changed = true;
      }
    };
    for (const auto& rf : g.runnables) {
      bool produces = rf.reads.empty();
      for (const auto& read : rf.reads) produces = produces || prod(read);
      for (const auto& w : rf.writes) raise(w, produces);
    }
    for (const auto& e : g.edges) raise(e.receiver_key, prod(e.sender_key));
  }
  // Backward: does a written value ever reach a terminal consumer? A reader
  // that writes nothing consumes; a relay consumes iff something it writes
  // is consumed downstream.
  std::map<std::string, bool> consumed;
  const auto cons = [&](const std::string& key) {
    const auto it = consumed.find(key);
    return it != consumed.end() && it->second;
  };
  changed = true;
  while (changed) {
    changed = false;
    const auto raise = [&](const std::string& key, bool v) {
      if (v && !cons(key)) {
        consumed[key] = true;
        changed = true;
      }
    };
    for (const auto& rf : g.runnables) {
      bool consumes = rf.writes.empty();
      for (const auto& w : rf.writes) consumes = consumes || cons(w);
      for (const auto& read : rf.reads) raise(read, consumes);
    }
    for (const auto& e : g.edges) raise(e.sender_key, cons(e.receiver_key));
  }

  // Fire only where V3 stays silent: the immediate link is fine, the chain
  // beyond it is dead. One diagnostic per slot.
  std::set<std::string> reported;
  for (const auto& rf : g.runnables) {
    for (const auto& read : rf.reads) {
      if (prod(read)) continue;
      // The slot must be fed (else V3 warns) by a written slot (else V3
      // flags the element as never written) — V12 adds the *transitive*
      // case.
      bool fed_by_written = false;
      for (const auto& e : g.edges) {
        if (e.receiver_key == read && g.written.count(e.sender_key)) {
          fed_by_written = true;
        }
      }
      if (!fed_by_written) continue;
      if (!reported.insert(read).second) continue;
      out.add("V12", Severity::kWarning, read,
              "dead flow: the value read here can never change — every "
              "transitive source only relays initial values",
              "the relay chain upstream has no autonomous producer; connect "
              "a real source or drop the consumer");
    }
  }
  for (const auto& rf : g.runnables) {
    for (std::size_t i = 0; i < rf.writes.size(); ++i) {
      const std::string& w = rf.writes[i];
      if (cons(w)) continue;
      // Only when the write is connected and its elements are read by the
      // immediate receiver (both V3-silent): the dead end is further down.
      bool delivered_and_read = false;
      for (const auto& e : g.edges) {
        if (e.sender_key != w) continue;
        for (const auto& other : g.runnables) {
          for (const auto& read : other.reads) {
            if (read == e.receiver_key) delivered_and_read = true;
          }
        }
      }
      if (!delivered_and_read) continue;
      if (!reported.insert(w).second) continue;
      out.add("V12", Severity::kInfo, w,
              "dead flow: this write is relayed downstream but no terminal "
              "consumer ever reads the result",
              "the relay chain ends in unread or unconnected flows; wire up "
              "a consumer or remove the chain");
    }
  }
}

void check_chain_deadlines(const ChainAnalysis& chains, Diagnostics& out) {
  for (const auto& b : chains.bounds) {
    const std::string subject = dot(b.instance, b.flow);
    if (!b.computable) {
      out.add("V9", Severity::kWarning, subject,
              "end-to-end latency obligation of contract " + b.contract +
                  " (" + std::to_string(b.deadline) +
                  " ns) cannot be statically bounded" +
                  (chains.schedulable
                       ? " (chain does not resolve to analyzable tasks)"
                       : " (holistic fixpoint found the deployment "
                         "unschedulable or divergent)"),
              "give every chain stage a WCET bound and a derivable period");
      continue;
    }
    if (b.bound > b.deadline) {
      out.add("V9", Severity::kError, subject,
              "contract " + b.contract + " assumes latency <= " +
                  std::to_string(b.deadline) +
                  " ns but the holistic bound over " +
                  (b.sink_task.empty() ? std::string("the delivery path")
                                       : "task " + b.sink_task) +
                  " is " + std::to_string(b.bound) + " ns",
              "shorten the chain, raise priorities, or relax the assumption");
    } else {
      out.add("V9", Severity::kInfo, subject,
              "end-to-end obligation holds statically: bound " +
                  std::to_string(b.bound) + " ns <= deadline " +
                  std::to_string(b.deadline) + " ns (slack " +
                  std::to_string(b.deadline - b.bound) + " ns, " +
                  std::to_string(chains.iterations) +
                  " fixpoint iterations)");
    }
  }
}

void check_monitor_coverage(const vfb::Composition& model,
                            const DeploymentPlan* plan,
                            const ContractMap& contracts, Diagnostics& out) {
  std::size_t obligations = 0;
  for (const auto& [instance, contract] : contracts) {
    if (model.find_instance(instance) == nullptr) continue;  // V1's finding
    for (const auto& g : contract.guarantees) {
      const bool unresolved =
          vfb::resolve_flow(model, instance, g.flow).empty();
      if (g.timing.period > 0) {
        ++obligations;
        if (unresolved) {
          out.add("V10", Severity::kWarning, dot(instance, g.flow),
                  "arrival guarantee of contract " + contract.name +
                      " resolves to no traced flow: no monitor will watch it",
                  "name an existing \"port\" or \"port.element\" flow, or "
                  "connect the port");
        }
      }
      if (!g.range.unbounded()) {
        ++obligations;
        if (unresolved) {
          out.add("V10", Severity::kWarning, dot(instance, g.flow),
                  "value-range guarantee of contract " + contract.name +
                      " resolves to no traced flow: no range monitor will "
                      "watch it",
                  "name an existing \"port\" or \"port.element\" flow, or "
                  "connect the port");
        }
      }
    }
    for (const auto& a : contract.assumptions) {
      const bool latency_bound = a.timing.latency > 0;
      const bool value_bound = !a.range.unbounded();
      if (!latency_bound && !value_bound) continue;
      if (latency_bound) ++obligations;
      if (value_bound) ++obligations;
      if (vfb::resolve_flow(model, instance, a.flow).empty()) {
        out.add("V10", Severity::kWarning, dot(instance, a.flow),
                (latency_bound ? std::string("latency")
                               : std::string("value-range")) +
                    " assumption of contract " + contract.name +
                    " resolves to no traced flow: no monitor will watch it",
                "the flow must resolve through a feeding connector to a "
                "producer");
      }
    }
    if (contract.behaviour.has_value()) {
      ++obligations;
      bool any_label = false;
      for (const auto& binding : contract.behaviour->bindings) {
        if (!vfb::resolve_flow(model, instance, binding.flow).empty()) {
          any_label = true;
        }
      }
      if (!any_label) {
        out.add("V10", Severity::kWarning, instance,
                "behavioural contract " + contract.name +
                    " has no resolvable label binding: the automaton "
                    "observer would see no events",
                "bind at least one flow that resolves to a traced subject");
      }
    }
  }
  if (plan != nullptr && !plan->runtime_verification && obligations > 0) {
    out.add("V10", Severity::kWarning, "deployment",
            "runtime verification is disabled but " +
                std::to_string(obligations) +
                " contract obligation(s) exist: nothing watches them at "
                "runtime",
            "set plan.runtime_verification = true or drop the contracts");
  }
}

void check_resource_budgets(const vfb::Composition& model,
                            const DeploymentPlan& plan,
                            const vfb::Elaboration& elab,
                            const ContractMap& contracts, Diagnostics& out) {
  // Generated per-instance CPU share: periodic runnables' wcet/period on the
  // instance's ECU (event tasks inherit chain periods and are judged by V9).
  std::map<std::string, double> measured;
  for (const auto& inst : model.instances()) {
    if (plan.instances.find(inst.name) == plan.instances.end()) continue;
    const ComponentType* type = model.find_type_of(inst.name);
    if (type == nullptr) continue;
    double u = 0.0;
    for (const auto& r : type->runnables) {
      if (r.trigger.kind != RunnableTrigger::Kind::kTiming ||
          r.trigger.period <= 0) {
        continue;
      }
      const vfb::ElaboratedTask* t = elab.task_for(inst.name, r.name);
      if (t == nullptr) continue;
      for (const auto& tr : t->runnables) {
        if (tr.runnable == &r) {
          u += static_cast<double>(tr.wcet) /
               static_cast<double>(r.trigger.period);
        }
      }
    }
    measured[inst.name] = u;
  }

  std::map<std::string, double> declared_per_ecu;
  double declared_bus_bps = 0.0;
  for (const auto& [instance, contract] : contracts) {
    const auto dep = plan.instances.find(instance);
    if (dep == plan.instances.end()) continue;
    const contracts::ResourceSpec& v = contract.vertical;
    declared_bus_bps += v.bus_bandwidth_bps;
    if (v.cpu_utilization <= 0) continue;
    declared_per_ecu[dep->second.ecu] += v.cpu_utilization;
    const auto mit = measured.find(instance);
    if (mit != measured.end() && mit->second > v.cpu_utilization) {
      out.add("V11", Severity::kWarning, instance,
              "generated periodic load " + std::to_string(mit->second) +
                  " of instance " + instance +
                  " exceeds its vertical CPU assumption " +
                  std::to_string(v.cpu_utilization) + " (contract " +
                  contract.name + ")",
              "raise the vertical assumption or reduce WCET/periods");
    }
  }
  for (const auto& [ecu, sum] : declared_per_ecu) {
    if (sum > 1.0) {
      out.add("V11", Severity::kError, ecu,
              "vertical CPU assumptions of the instances deployed on " + ecu +
                  " sum to " + std::to_string(sum) +
                  " > 1.0: the contracts oversubscribe the node",
              "move an instance to another ECU or renegotiate the "
              "assumptions");
    }
  }
  const auto bitrate = static_cast<double>(plan.bus_bitrate());
  if (declared_bus_bps > bitrate && bitrate > 0) {
    out.add("V11", Severity::kWarning, "bus",
            "declared bus-bandwidth assumptions sum to " +
                std::to_string(declared_bus_bps) + " bps > bus bitrate " +
                std::to_string(bitrate) + " bps",
            "the vertical assumptions exceed what the medium offers");
  }
}

}  // namespace orte::validation
