#include "validation/detectability.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "validation/flow_analysis.hpp"

namespace orte::validation {

namespace {

using contracts::Contract;
using vfb::DeploymentPlan;
using vfb::RunnableTrigger;

using ContractMap = std::map<std::string, Contract, std::less<>>;

std::string first_segment(std::string_view key) {
  return std::string(key.substr(0, key.find('.')));
}

/// Scenario label of a V13/V14 subject: like fi::Fault::label, but with
/// the short task-fault names and "*" for an empty target.
std::string fault_label(const fi::Fault& f) {
  const std::string_view kind =
      f.kind == fi::FaultKind::kTaskCrash         ? "crash"
      : f.kind == fi::FaultKind::kExecutionJitter ? "exec_jitter"
                                                  : fi::to_string(f.kind);
  return std::string(kind) + ':' + (f.target.empty() ? "*" : f.target);
}

// --- Perturbation atoms -------------------------------------------------------

/// One perturbed observable. The kinds partition what the trace can show:
/// a fault and a monitor meet exactly when they name the same atom.
struct Atom {
  enum class Kind {
    kWriteValue,    ///< The value published under a sender key changes.
    kWriteTiming,   ///< The instants of writes under a sender key shift.
    kWriteAbsence,  ///< Writes under a sender key stop entirely.
    kDeliverValue,  ///< The value arriving at a receiver slot changes.
    kDelivery,      ///< Delivery along one connector edge is lost/late.
    kTaskTiming,    ///< An instance's task timing records degrade.
  };
  Kind kind;
  std::string key;

  auto operator<=>(const Atom&) const = default;
};

std::string render(const Atom& a) {
  std::string_view prefix;
  switch (a.kind) {
    case Atom::Kind::kWriteValue:
      prefix = "write-value ";
      break;
    case Atom::Kind::kWriteTiming:
      prefix = "write-timing ";
      break;
    case Atom::Kind::kWriteAbsence:
      prefix = "write-absence ";
      break;
    case Atom::Kind::kDeliverValue:
      prefix = "deliver-value ";
      break;
    case Atom::Kind::kDelivery:
      prefix = "delivery ";
      break;
    case Atom::Kind::kTaskTiming:
      prefix = "task-timing ";
      break;
  }
  return std::string(prefix) + a.key;
}

// --- World model --------------------------------------------------------------

/// The V8 slot dataflow graph over the deployed route table.
struct World {
  FlowGraph graph;
  /// Instance -> every sender slot key its runnables write.
  std::map<std::string, std::set<std::string>> writes_of;
  /// Instances with at least one timing-triggered runnable.
  std::set<std::string> periodic_instances;
};

World build_world(const vfb::RouteTable& table) {
  World w{build_flow_graph(table), {}, {}};
  for (const auto& rf : w.graph.runnables) {
    if (rf.runnable->trigger.kind == RunnableTrigger::Kind::kTiming) {
      w.periodic_instances.insert(rf.instance);
    }
    for (const auto& key : rf.writes) w.writes_of[rf.instance].insert(key);
  }
  return w;
}

// --- Monitor inventory --------------------------------------------------------

/// A compiled plane plus the atom it observes; range planes carry the
/// contracted range they check values against.
struct Plane {
  MonitorPlane pub;
  Atom atom;
  std::optional<contracts::Interval> range;
};

/// The compiled planes, read off the elaboration's monitor specs: deadline
/// planes deduplicated per instance hosting a periodic task (event tasks get
/// a monitor too, but with no period there is no bound to miss), then each
/// contract's monitors in registration order, followed — when the plan opts
/// in — by one alive plane per arrival key (System::build_alive_supervision
/// supervises exactly those keys; the only plane that observes the
/// *absence* of writes).
std::vector<Plane> build_planes(const vfb::Elaboration& elab,
                                const DeploymentPlan& plan,
                                const ContractMap& contracts) {
  std::vector<Plane> planes;
  const auto add = [&planes](MonitorPlane::Kind kind, std::string contract,
                             Atom atom, std::string blame,
                             std::optional<contracts::Interval> range = {}) {
    planes.push_back(Plane{MonitorPlane{kind, std::move(contract),
                                        render(atom), std::move(blame)},
                           std::move(atom), range});
  };

  std::set<std::string> periodic;
  std::vector<const vfb::MonitorSpec*> contract_specs;
  for (const auto& m : elab.monitors) {
    if (const auto* d = std::get_if<rv::DeadlineSpec>(&m.spec)) {
      if (d->deadline > 0) periodic.insert(m.instance);
    } else {
      contract_specs.push_back(&m);
    }
  }
  for (const auto& instance : periodic) {
    const auto cit = contracts.find(instance);
    add(MonitorPlane::Kind::kDeadline,
        cit == contracts.end() ? "tk|" + instance : cit->second.name,
        Atom{Atom::Kind::kTaskTiming, instance}, instance);
  }

  std::size_t group = 0;
  for (std::size_t i = 0; i < contract_specs.size(); ++i) {
    const vfb::MonitorSpec& m = *contract_specs[i];
    if (const auto* a = std::get_if<rv::ArrivalSpec>(&m.spec)) {
      // Periodic guarantees watch write timing.
      add(MonitorPlane::Kind::kArrival, a->contract,
          Atom{Atom::Kind::kWriteTiming, a->subject},
          first_segment(a->subject));
    } else if (const auto* r = std::get_if<rv::RangeSpec>(&m.spec)) {
      // Guarantee ranges watch written values; assumption ranges watch
      // delivered values and blame the feeding producer.
      if (r->category == "rte.deliver") {
        add(MonitorPlane::Kind::kRangeDeliver, r->contract,
            Atom{Atom::Kind::kDeliverValue, r->subject},
            first_segment(r->report_subject), r->range);
      } else {
        add(MonitorPlane::Kind::kRangeWrite, r->contract,
            Atom{Atom::Kind::kWriteValue, r->subject},
            first_segment(r->subject), r->range);
      }
    } else if (const auto* l = std::get_if<rv::LatencySpec>(&m.spec)) {
      // Latency monitors watch one delivery edge (producer write ->
      // consumer activation) and blame the producer.
      add(MonitorPlane::Kind::kLatency, l->contract,
          Atom{Atom::Kind::kDelivery,
               l->source_subject + " -> " + l->sink_subject},
          first_segment(l->source_subject));
    } else if (const auto* au = std::get_if<rv::AutomatonSpec>(&m.spec)) {
      // Automaton observers consume write events of the bound flows: a
      // perturbed value or shifted timing can break the word.
      for (const auto& label : au->labels) {
        add(MonitorPlane::Kind::kAutomaton, au->contract,
            Atom{Atom::Kind::kWriteValue, label.subject},
            first_segment(label.subject));
        add(MonitorPlane::Kind::kAutomaton, au->contract,
            Atom{Atom::Kind::kWriteTiming, label.subject},
            first_segment(label.subject));
      }
    }
    const bool last_of_contract = i + 1 == contract_specs.size() ||
                                  contract_specs[i + 1]->instance != m.instance;
    if (!last_of_contract) continue;
    if (plan.alive_supervision) {
      for (std::size_t j = group; j <= i; ++j) {
        const auto* a = std::get_if<rv::ArrivalSpec>(&contract_specs[j]->spec);
        if (a != nullptr) {
          add(MonitorPlane::Kind::kAlive, a->contract,
              Atom{Atom::Kind::kWriteAbsence, a->subject},
              first_segment(a->subject));
        }
      }
    }
    group = i + 1;
  }
  return planes;
}

// --- Fault -> perturbation set ------------------------------------------------

/// Value-perturbation fixpoint over the V8 relay structure: a perturbed
/// sender key perturbs every receiver slot its edges feed; a runnable
/// reading a perturbed slot perturbs everything it writes.
void propagate_values(const World& w, std::set<std::string>& writes,
                      std::set<std::string>& delivers) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& e : w.graph.edges) {
      if (writes.count(e.sender_key) != 0 &&
          delivers.insert(e.receiver_key).second) {
        changed = true;
      }
    }
    for (const auto& rf : w.graph.runnables) {
      const bool tainted_read =
          std::any_of(rf.reads.begin(), rf.reads.end(),
                      [&delivers](const std::string& r) {
                        return delivers.count(r) != 0;
                      });
      if (!tainted_read) continue;
      for (const auto& wkey : rf.writes) {
        if (writes.insert(wkey).second) changed = true;
      }
    }
  }
}

std::set<Atom> perturbation_of(const fi::Fault& f, const World& w,
                               const DeploymentPlan& plan) {
  std::set<Atom> atoms;
  const auto add_delivery = [&atoms](const vfb::Route& e) {
    atoms.insert(Atom{Atom::Kind::kDelivery,
                      e.sender_key + " -> " + e.connector->to_instance});
  };
  switch (f.kind) {
    case fi::FaultKind::kFrameDrop:
    case fi::FaultKind::kFrameDelay:
      // Frames exist only on cross-ECU edges; the target is a frame-name
      // substring which the analysis approximates against the producer
      // key ("" = every frame).
      for (const auto& e : w.graph.edges) {
        if (e.cross_ecu && (f.target.empty() ||
                            e.sender_key.find(f.target) != std::string::npos)) {
          add_delivery(e);
        }
      }
      break;
    case fi::FaultKind::kFrameCorrupt: {
      std::set<std::string> writes;
      std::set<std::string> delivers;
      for (const auto& e : w.graph.edges) {
        if (e.cross_ecu && (f.target.empty() ||
                            e.sender_key.find(f.target) != std::string::npos)) {
          delivers.insert(e.receiver_key);
        }
      }
      propagate_values(w, writes, delivers);
      for (const auto& k : writes) {
        atoms.insert(Atom{Atom::Kind::kWriteValue, k});
      }
      for (const auto& k : delivers) {
        atoms.insert(Atom{Atom::Kind::kDeliverValue, k});
      }
      break;
    }
    case fi::FaultKind::kBabblingIdiot:
      // On an arbitrated bus the flood starves every real frame; TDMA buses
      // contain the babbler structurally (static slots) — it perturbs
      // NOTHING a component-level monitor could see.
      if (plan.bus == vfb::BusKind::kCan) {
        for (const auto& e : w.graph.edges) {
          if (e.cross_ecu) add_delivery(e);
        }
      }
      break;
    case fi::FaultKind::kValueCorrupt:
    case fi::FaultKind::kStuckAt: {
      std::set<std::string> writes;
      std::set<std::string> delivers;
      for (const auto& [instance, keys] : w.writes_of) {
        for (const auto& key : keys) {
          if (fi::key_matches(f.target, key)) writes.insert(key);
        }
      }
      propagate_values(w, writes, delivers);
      for (const auto& k : writes) {
        atoms.insert(Atom{Atom::Kind::kWriteValue, k});
      }
      for (const auto& k : delivers) {
        atoms.insert(Atom{Atom::Kind::kDeliverValue, k});
      }
      break;
    }
    case fi::FaultKind::kTaskCrash: {
      // Fail-silence: a dead producer emits NO observable — no late write,
      // no bad value, no deadline record. The only perturbation is the
      // absence of its writes, which only alive supervision can sense.
      const auto it = w.writes_of.find(f.target);
      if (it != w.writes_of.end()) {
        for (const auto& key : it->second) {
          atoms.insert(Atom{Atom::Kind::kWriteAbsence, key});
        }
      }
      break;
    }
    case fi::FaultKind::kWcetOverrun:
    case fi::FaultKind::kExecutionJitter: {
      atoms.insert(Atom{Atom::Kind::kTaskTiming, f.target});
      const auto it = w.writes_of.find(f.target);
      if (it != w.writes_of.end()) {
        for (const auto& key : it->second) {
          atoms.insert(Atom{Atom::Kind::kWriteTiming, key});
        }
      }
      for (const auto& e : w.graph.edges) {
        if (e.connector->from_instance == f.target) add_delivery(e);
      }
      break;
    }
    case fi::FaultKind::kClockDrift:
      for (const auto& e : w.graph.edges) {
        if (e.cross_ecu && e.from_ecu == f.target) add_delivery(e);
      }
      break;
  }
  return atoms;
}

/// Whether a stuck-at fault's value reaches `atom` unchanged: the write
/// under a stuck key, or the delivery into a slot fed only by stuck keys.
/// Past a runnable the value is recomputed, so it is unknown there.
bool carries_stuck_value(const Atom& atom, const fi::Fault& f,
                         const World& w) {
  if (atom.kind == Atom::Kind::kWriteValue) {
    return fi::key_matches(f.target, atom.key);
  }
  if (atom.kind != Atom::Kind::kDeliverValue) return false;
  bool fed = false;
  for (const auto& e : w.graph.edges) {
    if (e.receiver_key != atom.key) continue;
    if (!fi::key_matches(f.target, e.sender_key)) return false;
    fed = true;
  }
  return fed;
}

/// A range plane cannot see a stuck-at value that lies inside its range.
bool sees(const Plane& p, const fi::Fault& f, const World& w) {
  return f.kind != fi::FaultKind::kStuckAt || !p.range.has_value() ||
         !p.range->contains(static_cast<std::int64_t>(f.value)) ||
         !carries_stuck_value(p.atom, f, w);
}

FaultVerdict judge(const fi::Fault& f, const World& w,
                   const DeploymentPlan& plan,
                   const std::vector<Plane>& planes) {
  FaultVerdict v;
  v.fault = f;
  v.label = fault_label(f);
  const std::set<Atom> atoms = perturbation_of(f, w, plan);
  v.perturbs = !atoms.empty();
  const fi::Domain domain = fi::domain_of(f, plan);
  bool any_in_domain = false;
  bool all_in_domain = true;
  for (const auto& p : planes) {
    if (atoms.count(p.atom) == 0 || !sees(p, f, w)) continue;
    v.observers.push_back(p.pub);
    if (domain.contains(p.pub.blame)) {
      any_in_domain = true;
    } else {
      all_in_domain = false;
    }
  }
  v.detectable = !v.observers.empty();
  v.containment_gap = v.detectable && !any_in_domain;
  v.contained = v.detectable && all_in_domain;
  return v;
}

/// A stuck-at value that no range plane meeting `key`'s value unchanged
/// accepts, so the canonical stuck-at stays visible to every range plane it
/// reaches: one above the highest such range, or one below the lowest.
std::uint64_t out_of_range_value(const std::string& key,
                                 const contracts::Interval& own,
                                 const World& w,
                                 const std::vector<Plane>& planes) {
  const fi::Fault probe{.kind = fi::FaultKind::kStuckAt, .target = key};
  contracts::Interval span = own;
  for (const auto& p : planes) {
    if (p.range.has_value() && carries_stuck_value(p.atom, probe, w)) {
      span.lo = std::min(span.lo, p.range->lo);
      span.hi = std::max(span.hi, p.range->hi);
    }
  }
  if (span.hi < INT64_MAX) return static_cast<std::uint64_t>(span.hi + 1);
  if (span.lo > INT64_MIN) return static_cast<std::uint64_t>(span.lo - 1);
  return static_cast<std::uint64_t>(own.hi < INT64_MAX ? own.hi + 1
                                                       : own.lo - 1);
}

/// The canonical per-model fault inventory check_detectability judges: one
/// representative per plane the deployment can physically express.
std::vector<fi::Fault> canonical_faults(const ContractMap& contracts,
                                        const World& w,
                                        const std::vector<Plane>& planes,
                                        const vfb::Composition& model) {
  std::vector<fi::Fault> faults;
  const bool networked =
      std::any_of(w.graph.edges.begin(), w.graph.edges.end(),
                  [](const vfb::Route& e) { return e.cross_ecu; });
  if (networked) {
    faults.push_back({.kind = fi::FaultKind::kFrameDrop});
    faults.push_back({.kind = fi::FaultKind::kFrameCorrupt});
    faults.push_back({.kind = fi::FaultKind::kBabblingIdiot});
    std::set<std::string> sourcing_ecus;
    for (const auto& e : w.graph.edges) {
      if (e.cross_ecu) sourcing_ecus.insert(e.from_ecu);
    }
    for (const auto& ecu : sourcing_ecus) {
      faults.push_back({.kind = fi::FaultKind::kClockDrift, .target = ecu});
    }
  }
  for (const auto& [instance, contract] : contracts) {
    bool resolvable_guarantee = false;
    for (const auto& g : contract.guarantees) {
      const std::vector<std::string> keys =
          vfb::resolve_flow(model, instance, g.flow);
      resolvable_guarantee = resolvable_guarantee || !keys.empty();
      if (g.range.unbounded()) continue;
      for (const auto& key : keys) {
        const std::uint64_t value = out_of_range_value(key, g.range, w, planes);
        faults.push_back(
            {.kind = fi::FaultKind::kStuckAt, .target = key, .value = value});
      }
    }
    if (!resolvable_guarantee || w.writes_of.count(instance) == 0) continue;
    faults.push_back({.kind = fi::FaultKind::kTaskCrash, .target = instance});
    if (w.periodic_instances.count(instance) != 0) {
      faults.push_back(
          {.kind = fi::FaultKind::kWcetOverrun, .target = instance});
    }
  }
  return faults;
}

}  // namespace

std::string_view to_string(MonitorPlane::Kind kind) {
  switch (kind) {
    case MonitorPlane::Kind::kArrival:
      return "arrival";
    case MonitorPlane::Kind::kDeadline:
      return "deadline";
    case MonitorPlane::Kind::kLatency:
      return "latency";
    case MonitorPlane::Kind::kRangeWrite:
      return "range-write";
    case MonitorPlane::Kind::kRangeDeliver:
      return "range-deliver";
    case MonitorPlane::Kind::kAutomaton:
      return "automaton";
    case MonitorPlane::Kind::kAlive:
      return "alive";
  }
  return "?";
}

DetectabilityAnalysis analyze_detectability(
    const vfb::Composition& model, const vfb::DeploymentPlan& plan,
    const std::map<std::string, contracts::Contract, std::less<>>& contracts,
    const std::vector<fi::Fault>& faults) {
  DetectabilityAnalysis out;
  const vfb::Elaboration elab = vfb::elaborate(model, plan, contracts);
  const World w = build_world(elab);
  const std::vector<Plane> planes = plan.runtime_verification
                                        ? build_planes(elab, plan, contracts)
                                        : std::vector<Plane>{};
  out.monitors.reserve(planes.size());
  for (const auto& p : planes) out.monitors.push_back(p.pub);
  out.verdicts.reserve(faults.size());
  for (const auto& f : faults) {
    out.verdicts.push_back(judge(f, w, plan, planes));
  }
  return out;
}

void check_detectability(
    const vfb::Composition& model, const vfb::DeploymentPlan& plan,
    const vfb::Elaboration& elab,
    const std::map<std::string, contracts::Contract, std::less<>>& contracts,
    Diagnostics& out) {
  // With the rv layer disabled NOTHING is detectable — V10 already flags
  // obligations a disabled registry would orphan; repeating that per fault
  // plane would be noise.
  if (!plan.runtime_verification || contracts.empty()) return;

  const World w = build_world(elab);
  const std::vector<Plane> planes = build_planes(elab, plan, contracts);
  const std::vector<fi::Fault> faults =
      canonical_faults(contracts, w, planes, model);

  for (const auto& f : faults) {
    const FaultVerdict v = judge(f, w, plan, planes);
    if (v.perturbs && !v.detectable) {
      const bool crash = f.kind == fi::FaultKind::kTaskCrash;
      out.add("V13", Severity::kWarning, v.label,
              "fault plane perturbs observable flows but no compiled runtime "
              "monitor watches any of them — a campaign scores it missed",
              crash ? "a crashed producer is fail-silent; set "
                      "DeploymentPlan::alive_supervision = true to bind "
                      "watchdog alive supervision from the contract periods"
                    : "declare a range/period/latency obligation on an "
                      "affected flow so a monitor is compiled for it");
    }
    if (v.containment_gap) {
      out.add("V14", Severity::kWarning, v.label,
              "fault is detectable, but every observing monitor blames an "
              "instance outside the fault's containment domain — detection "
              "can never score as contained",
              "add an obligation whose violation blames the faulty domain "
              "(e.g. a bus guardian / TDMA slotting for rogue nodes) or "
              "accept the leak as a measured gap");
    }
  }

  // V15: periodic guarantees imply a heartbeat; without alive supervision
  // the producer's crash is invisible (the one-flag fix for V13's crash
  // planes). One diagnostic per supervised-able sender key: the arrival
  // monitors' subjects.
  if (!plan.alive_supervision) {
    std::set<std::string> flagged;
    for (const auto& m : elab.monitors) {
      const auto* a = std::get_if<rv::ArrivalSpec>(&m.spec);
      if (a == nullptr || !flagged.insert(a->subject).second) continue;
      out.add("V15", Severity::kWarning, a->subject,
              "periodic guarantee " + a->contract + "." + m.flow +
                  " implies a heartbeat, but no watchdog alive "
                  "supervision is bound to it",
              "set DeploymentPlan::alive_supervision = true to "
              "supervise contract periods with bsw::WatchdogManager");
    }
  }
}

}  // namespace orte::validation
