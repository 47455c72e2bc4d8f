#include "vfb/system.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "analysis/tt_schedule.hpp"
#include "validation/validator.hpp"

namespace orte::vfb {

System::System(sim::Kernel& kernel, sim::Trace& trace,
               const Composition& model, DeploymentPlan plan)
    : kernel_(kernel), trace_(trace), model_(model), plan_(std::move(plan)) {
  build();
}

const InstanceDeployment& System::deployment(
    const std::string& instance) const {
  auto it = plan_.instances.find(instance);
  if (it == plan_.instances.end()) {
    // The validator (rule V1) rejects undeployed instances before generation
    // starts, so reaching this is a generator defect, not a user error.
    throw std::logic_error("internal: no deployment for instance " + instance +
                           " escaped validation");
  }
  return it->second;
}

System::EcuCtx& System::ctx(const std::string& ecu_name) {
  auto it = ecus_.find(ecu_name);
  if (it == ecus_.end()) {
    throw std::invalid_argument("unknown ECU " + ecu_name);
  }
  return it->second;
}

void System::build() {
  elab_ = elaborate(model_, plan_);
  // Static end-to-end bounds (holistic fixpoint over the elaborated chains),
  // computed once: strict validation judges them (V9), build_monitors stamps
  // them into each LatencySpec and analyze() reports them.
  validation::ChainAnalysis chains;
  if (validation::has_latency_assumptions(model_.bound_contracts())) {
    chains = validation::analyze_chains(model_, plan_, elab_,
                                        model_.bound_contracts());
  }
  // Strict-mode static validation: the full rule set runs over the model
  // *and* the deployment plan before any runtime object exists. Any
  // error-severity diagnostic aborts generation with the complete rendered
  // report; warnings (e.g. V4 race hazards) and infos are tolerated here and
  // can be inspected via validation::validate(model, plan) directly.
  const validation::Diagnostics report =
      validation::validate(model_, plan_, elab_, chains);
  if (report.has_errors()) {
    throw std::invalid_argument("System: model validation failed\n" +
                                report.render());
  }
  if (!elab_.gaps.empty()) {
    // Validation rules V1-V5 report every gap first, so reaching this is a
    // validator defect, not a user error.
    throw std::logic_error("internal: " + elab_.gaps.front() +
                           " escaped validation");
  }
  chain_bounds_ = std::move(chains.bounds);

  // ---- Bus + per-ECU infrastructure ----------------------------------------
  if (plan_.bus == BusKind::kCan) {
    can_ = std::make_unique<can::CanBus>(kernel_, trace_, plan_.can);
  } else {
    flexray_ =
        std::make_unique<flexray::FlexRayBus>(kernel_, trace_, elab_.flexray);
  }
  for (const auto& name : elab_.ecus) {
    EcuCtx c;
    c.ecu = std::make_unique<os::Ecu>(kernel_, trace_, name);
    c.com = std::make_unique<bsw::Com>(kernel_, trace_);
    c.rte = std::make_unique<Rte>(kernel_, trace_, model_, name);
    c.controller = plan_.bus == BusKind::kCan
                       ? static_cast<net::Controller*>(&can_->attach())
                       : static_cast<net::Controller*>(&flexray_->attach());
    ecus_.emplace(name, std::move(c));
  }
  const RteIds ids = build_rte();
  build_com(ids);
  build_tasks(ids);
  if (plan_.runtime_verification) build_monitors();
  if (plan_.alive_supervision) build_alive_supervision();

  // Warm the trace's intern tables with the categories and subjects the
  // generated system emits hottest, so every ID (and its slot in the count
  // indexes) exists before the first simulated event. Monitor attachment
  // already interned everything the rv layer routes on; this covers the
  // emit side, keeping the measured run free of first-sight intern misses.
  for (const char* category :
       {"rte.write", "rte.deliver", "rte.runnable", "task.release",
        "task.start", "task.complete", "task.deadline_miss"}) {
    trace_.intern_category(category);
  }
  for (const auto& t : elab_.tasks) trace_.intern_subject(t.name);
}

System::RteIds System::build_rte() {
  // Build-time only: RTE keys resolved to the IDs their ECU's Rte hands out.
  // A key names one instance, so it lives on exactly one ECU.
  std::map<std::string, Rte::SlotId, std::less<>> slot_ids;
  std::map<std::string, Rte::SenderId, std::less<>> sender_ids;
  const auto slot = [&](const std::string& ecu, const std::string& key,
                        const DataElement& element) {
    const auto [it, fresh] = slot_ids.try_emplace(key);
    if (fresh) it->second = ctx(ecu).rte->add_slot(key, element);
    return it->second;
  };
  const auto sender = [&](const std::string& ecu, const std::string& key) {
    const auto [it, fresh] = sender_ids.try_emplace(key);
    if (fresh) it->second = ctx(ecu).rte->add_sender(key);
    return it->second;
  };

  // Routes, in connector order; build_com wires the cross-ECU ones.
  RteIds ids;
  for (const Route& r : elab_.routes) {
    ids.route_senders.push_back(sender(r.from_ecu, r.sender_key));
    ids.route_slots.push_back(slot(r.to_ecu, r.receiver_key, *r.element));
    if (!r.cross_ecu) {
      ctx(r.from_ecu).rte->add_route(ids.route_senders.back(),
                                     ids.route_slots.back());
    }
  }

  // Bindings: every access and data-received trigger of every generated
  // runnable; a slot no route feeds holds its element's init.
  ids.bindings.resize(elab_.bindings.size());
  ids.triggers.resize(elab_.bindings.size());
  const auto bind = [&](const std::string& ecu, std::size_t bi) {
    const Binding& b = elab_.bindings[bi];
    if (!b.trigger_key.empty()) {
      const RunnableTrigger& on = b.runnable->trigger;
      ids.triggers[bi] =
          slot(ecu, b.trigger_key,
               model_.element_of(b.instance, on.port, on.element));
    }
    std::vector<std::uint32_t> access_ids;
    for (std::size_t a = 0; a < b.keys.size(); ++a) {
      const DataAccess& acc = b.runnable->accesses[a];
      access_ids.push_back(
          is_write(acc.kind)
              ? sender(ecu, b.keys[a])
              : slot(ecu, b.keys[a],
                     model_.element_of(b.instance, acc.port, acc.element)));
    }
    ids.bindings[bi] =
        ctx(ecu).rte->bind(b.instance, *b.runnable, std::move(access_ids));
  };
  for (const auto& t : elab_.tasks) {
    for (const auto& tr : t.runnables) bind(t.ecu, tr.binding);
  }
  for (const auto& init : elab_.inits) bind(init.ecu, init.binding);
  return ids;
}

void System::build_com(const RteIds& ids) {
  for (const auto& pspec : elab_.pdus) {
    EcuCtx& tx = ctx(pspec.sender_ecu);
    bsw::IPduConfig pdu_cfg;
    pdu_cfg.name = pspec.name;
    pdu_cfg.frame_id = pspec.frame_id;
    pdu_cfg.length_bytes = pspec.length_bytes;
    pdu_cfg.mode = bsw::TxMode::kDirect;
    tx.com->add_tx_ipdu(pdu_cfg, *tx.controller);
    if (plan_.bus == BusKind::kFlexRay) {
      flexray_->assign_static_slot(
          pspec.frame_id,
          static_cast<flexray::FlexRayController&>(*tx.controller));
    }

    std::set<std::string> rx_ecus;  // ECUs that declared this PDU's rx side
    for (const auto& [index, offset] : pspec.signals) {
      const ElaboratedSignal& s = elab_.signals[index];
      bsw::SignalConfig sig;
      sig.name = s.name;
      sig.ipdu = pspec.name;
      sig.bit_offset = offset;
      sig.bit_length = s.element->bit_length;
      sig.triggered = true;  // a write transmits the whole packed PDU
      tx.com->add_signal(sig);
      tx.rte->add_route(ids.route_senders[s.routes.front()], *tx.com, s.name);
      // Each receiving ECU declares the signal once and delivers it into
      // its slots in connector order.
      sig.triggered = false;
      std::set<std::string> signal_ecus;
      for (const std::size_t ri : s.routes) {
        const std::string& ecu_name = elab_.routes[ri].to_ecu;
        EcuCtx& rx = ctx(ecu_name);
        if (rx_ecus.insert(ecu_name).second) {
          rx.com->add_rx_ipdu(pdu_cfg, *rx.controller);
        }
        if (signal_ecus.insert(ecu_name).second) rx.com->add_signal(sig);
        rx.com->on_signal(s.name, [rte = rx.rte.get(),
                                   slot = ids.route_slots[ri]](
                                      std::uint64_t value) {
          rte->deliver(slot, value);
        });
      }
    }
  }
}

int System::node_of(const std::string& ecu_name) const {
  for (std::size_t i = 0; i < elab_.ecus.size(); ++i) {
    if (elab_.ecus[i] == ecu_name) return static_cast<int>(i);
  }
  return -1;
}

void System::build_monitors() {
  registry_ = std::make_unique<rv::MonitorRegistry>(trace_);
  for (const auto& m : elab_.monitors) {
    if (const auto* latency = std::get_if<rv::LatencySpec>(&m.spec)) {
      // Only a chain ending in a data-received task gets its bound stamped:
      // there the monitor's write->activation span is covered by the event
      // task's holistic response. For periodic sinks the monitor measures
      // sampling age (write -> next periodic activation), which the
      // delivery-path bound deliberately does not claim to cover.
      rv::LatencySpec spec = *latency;
      for (const auto& cb : chain_bounds_) {
        if (cb.contract == spec.contract && cb.instance == m.instance &&
            cb.flow == m.flow && cb.computable && !cb.sink_task.empty()) {
          spec.static_bound = cb.bound;
        }
      }
      registry_->add_latency(std::move(spec));
      continue;
    }
    std::visit(
        [this](const auto& spec) {
          using Spec = std::decay_t<decltype(spec)>;
          if constexpr (std::is_same_v<Spec, rv::DeadlineSpec>) {
            registry_->add_deadline(spec);
          } else if constexpr (std::is_same_v<Spec, rv::ArrivalSpec>) {
            registry_->add_arrival(spec);
          } else if constexpr (std::is_same_v<Spec, rv::RangeSpec>) {
            registry_->add_range(spec);
          } else if constexpr (std::is_same_v<Spec, rv::AutomatonSpec>) {
            registry_->add_automaton(spec);
          }
        },
        m.spec);
  }

  // Containment reaction: when escalation fires, silence the offending
  // instance's outputs at its RTE.
  registry_->quarantine_with(
      [this](const std::string& instance, const rv::Violation&) {
        if (plan_.instances.find(instance) != plan_.instances.end()) {
          quarantine(instance);
        }
      });
  // Rehabilitation reaction: when a contract's DTC ages out, restore the
  // instance's delivery — the release half of the closed error-handling
  // loop; no integrator code has to call Rte::release by hand.
  registry_->release_with([this](const std::string& instance) {
    if (plan_.instances.find(instance) != plan_.instances.end()) {
      ctx(deployment(instance).ecu).rte->release(instance);
    }
  });
  registry_->recover_to(plan_.recovery_mode);
}

void System::build_alive_supervision() {
  const auto& beats = elab_.heartbeats;
  if (beats.empty()) return;
  for (auto first = beats.begin(); first != beats.end();) {
    const std::string& ecu_name = first->ecu;
    const auto last =
        std::find_if(first, beats.end(),
                     [&](const Heartbeat& hb) { return hb.ecu != ecu_name; });
    // Supervision cycle: twice the slowest supervised period on the ECU, so
    // every nominal cycle sees >= 2 indications of every entity — robust
    // against release phase and WCET-overrun backlogs without tuning.
    sim::Duration slowest = 0;
    for (auto it = first; it != last; ++it) {
      slowest = std::max(slowest, it->period);
    }
    auto wdg =
        std::make_unique<bsw::WatchdogManager>(kernel_, trace_, 2 * slowest);
    for (auto it = first; it != last; ++it) {
      wdg->supervise({.entity = it->key,
                      .min_indications = 1,
                      .failed_cycles_tolerance = 1});
      alive_contract_of_[it->key] = it->contract;
      checkpoint_routes_[trace_.intern_subject(it->key)] = wdg.get();
    }
    // Expiry -> rv pipeline: the watchdog is the one detector that senses
    // the ABSENCE of writes, so a fail-silent producer (kTaskCrash) becomes
    // a first-class "alive" violation with the producer's key as subject —
    // blame attribution lands on the crashed instance, inside its
    // containment domain.
    wdg->on_violation([this](const std::string& entity, std::uint32_t count) {
      if (registry_ == nullptr) return;
      rv::Violation v;
      const auto cit = alive_contract_of_.find(entity);
      v.contract = cit != alive_contract_of_.end() ? cit->second : entity;
      v.subject = entity;
      v.kind = "alive";
      v.observed = count;
      v.bound = 1;  // min indications per supervision cycle
      v.when = kernel_.now();
      v.detail = "watchdog alive-supervision expiry";
      registry_->report_external(v);
    });
    watchdogs_[ecu_name] = std::move(wdg);
    first = last;
  }

  // Checkpoint feed: a supervised key indicates liveness whenever its RTE
  // publishes under it — including quarantined publishes (a sanctioned but
  // alive producer keeps its heartbeat; quarantine is containment, not
  // death). It listens to those two categories only and routes on interned
  // IDs, so unsupervised writes cost one map miss.
  const auto checkpoint = [this](const sim::TraceEvent& ev) {
    const auto it = checkpoint_routes_.find(ev.subject_id);
    if (it == checkpoint_routes_.end()) return;
    it->second->checkpoint(trace_.subject_name(ev.subject_id));
  };
  for (const char* category : {"rte.write", "rte.quarantine_drop"}) {
    trace_.subscribe_ids(trace_.intern_category(category), checkpoint);
  }
}

void System::quarantine(const std::string& instance) {
  ctx(deployment(instance).ecu).rte->quarantine(instance);
}

void System::build_tasks(const RteIds& ids) {
  for (const auto& ecu_name : elab_.ecus) {
    EcuCtx& c = ctx(ecu_name);

    for (const auto& p : plan_.partitions) {
      if (p.ecu != ecu_name) continue;
      os::PartitionConfig cfg;
      cfg.name = p.name;
      cfg.budget = p.budget;
      cfg.period = p.period;
      c.partition_ids[p.name] = c.ecu->add_partition(cfg);
    }

    // Time-triggered deployment: synthesize a dispatch table over the
    // runnables' declared WCET bounds; periodic tasks become table-activated.
    std::vector<analysis::TtJobSpec> specs;
    for (const auto& t : elab_.tasks) {
      if (t.ecu == ecu_name && t.table_dispatched) {
        specs.push_back({.task = t.name, .period = t.period, .wcet = t.wcet});
      }
    }
    if (!specs.empty()) {
      const auto schedule = analysis::synthesize_schedule(specs);
      if (!schedule.has_value()) {
        throw std::invalid_argument(
            "time-triggered schedule synthesis failed for ECU " + ecu_name +
            " (WCET bounds do not fit non-preemptively)");
      }
      c.ecu->set_schedule_table(schedule->entries, schedule->cycle);
    }

    Rte* rte = c.rte.get();
    auto make_segment = [rte, &ids](const TaskRunnable& tr) {
      // The inlined server-call WCET runs in the caller's context.
      const Runnable* r = tr.runnable;
      const Rte::BindingId b = ids.bindings[tr.binding];
      os::Segment seg;
      seg.duration = [r, inlined = tr.inlined]() -> sim::Duration {
        if (r->enabled_if && !r->enabled_if()) return 0;
        return (r->execution_time ? r->execution_time() : 0) + inlined;
      };
      seg.before = [rte, b] { rte->capture_implicit(b); };
      seg.after = [rte, r, b] {
        if (r->enabled_if && !r->enabled_if()) return;
        rte->run_behavior(b);
      };
      return seg;
    };

    for (const auto& t : elab_.tasks) {
      if (t.ecu != ecu_name) continue;
      const InstanceDeployment& dep = deployment(t.instance);
      os::TaskConfig cfg;
      cfg.name = t.name;
      cfg.priority = t.priority;
      cfg.budget = dep.budget;
      cfg.overrun_action = dep.overrun_action;
      if (!dep.partition.empty()) {
        cfg.partition = c.partition_ids.at(dep.partition);
      }
      if (t.period <= 0) {
        // Event task: activated by every update of its trigger element.
        cfg.max_pending_activations = 8;
        os::Task& task = c.ecu->add_task(cfg);
        task.add_segment(make_segment(t.runnables.front()));
        os::Ecu* ecu = c.ecu.get();
        os::Task* task_ptr = &task;
        rte->on_update(ids.triggers[t.runnables.front().binding],
                       [ecu, task_ptr] { ecu->activate(*task_ptr); });
        continue;
      }
      cfg.period = t.table_dispatched ? 0 : t.period;  // TT: table-activated
      if (t.table_dispatched) cfg.relative_deadline = t.period;
      os::Task& task = c.ecu->add_task(cfg);
      // AUTOSAR implicit semantics are task-scoped: ALL implicit inputs of
      // the task's runnables are snapshotted once when the task starts, so
      // multi-element / multi-runnable reads within one job are consistent.
      std::vector<Rte::BindingId> group;
      for (const auto& tr : t.runnables) {
        group.push_back(ids.bindings[tr.binding]);
      }
      for (const auto& tr : t.runnables) {
        os::Segment seg = make_segment(tr);
        seg.before = {};
        if (&tr == &t.runnables.front()) {
          seg.before = [rte, group] {
            for (const Rte::BindingId b : group) rte->capture_implicit(b);
          };
        }
        task.add_segment(std::move(seg));
      }
    }

    // Init runnables execute once at t=start, outside any task.
    for (const auto& init : elab_.inits) {
      if (init.ecu != ecu_name) continue;
      kernel_.schedule_at(
          kernel_.now(),
          [rte, b = ids.bindings[init.binding]] {
            rte->capture_implicit(b);
            rte->run_behavior(b);
          },
          sim::EventOrder::kSoftware);
    }
  }
}

void System::start() {
  if (started_) throw std::logic_error("System::start called twice");
  started_ = true;
  for (auto& [name, c] : ecus_) {
    c.ecu->start();
    c.com->start();
  }
  if (flexray_) flexray_->start();
  for (auto& [ecu_name, wdg] : watchdogs_) wdg->start();
}

void System::run_for(sim::Duration horizon) {
  if (!started_) start();
  kernel_.run_until(kernel_.now() + horizon);
}

SystemAnalysis System::analyze() const {
  SystemAnalysis out;
  for (const auto& t : elab_.tasks) {
    out.tasks.push_back({.name = t.name, .wcet = t.wcet, .period = t.period,
                         .priority = t.priority});
  }
  // Per-ECU task analysis over the generated configuration.
  for (const auto& ecu_name : elab_.ecus) {
    std::vector<analysis::AnalysisTask> local;
    for (const auto& t : elab_.tasks) {
      if (t.ecu != ecu_name) continue;
      if (t.period <= 0) {
        out.complete = false;  // event task: needs chain context (holistic)
        continue;
      }
      local.push_back({.name = t.name, .wcet = t.wcet, .period = t.period,
                       .priority = t.priority});
    }
    const auto result = analysis::analyze(local);
    if (!result.schedulable) out.schedulable = false;
    for (const auto& [name, r] : result.response) out.task_response[name] = r;
  }
  // Bus analysis of the generated PDUs.
  if (plan_.bus == BusKind::kCan) {
    std::vector<analysis::CanMessage> msgs;
    for (const auto& p : elab_.pdus) {
      if (p.period <= 0) {
        out.complete = false;
        continue;
      }
      msgs.push_back({.name = p.name, .id = p.frame_id,
                      .bytes = p.length_bytes, .period = p.period});
    }
    const auto bus = analysis::analyze_can(msgs, plan_.can.bitrate_bps);
    if (!bus.schedulable) out.schedulable = false;
    out.bus_utilization = bus.utilization;
    for (const auto& [name, r] : bus.response) out.pdu_response[name] = r;
  } else {
    // FlexRay static slots: delivery is periodic by construction; the bound
    // is one cycle + slot regardless of load.
    const auto slot = flexray::FlexRayBus::slot_length(elab_.flexray);
    const auto cycle = flexray::FlexRayBus::cycle_length(elab_.flexray);
    for (const auto& p : elab_.pdus) {
      out.pdu_response[p.name] = cycle + slot;
    }
    out.bus_utilization =
        cycle > 0 ? static_cast<double>(
                        static_cast<sim::Duration>(elab_.pdus.size()) * slot) /
                        static_cast<double>(cycle)
                  : 0.0;
  }
  // End-to-end chain bounds computed at generation time — the static half
  // of the cross-check against the rv::LatencyMonitor observations.
  out.chain_bounds = chain_bounds_;
  return out;
}

os::Ecu& System::ecu(const std::string& name) { return *ctx(name).ecu; }
Rte& System::rte(const std::string& ecu_name) { return *ctx(ecu_name).rte; }
bsw::Com& System::com(const std::string& ecu_name) {
  return *ctx(ecu_name).com;
}

os::Task* System::task_of(const std::string& instance, sim::Duration period) {
  const std::string& ecu_name = deployment(instance).ecu;
  return ctx(ecu_name).ecu->find_task(periodic_task_name(instance, period));
}

}  // namespace orte::vfb
