#include "validation/validator.hpp"

#include "validation/detectability.hpp"
#include "validation/flow_analysis.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace orte::validation {

namespace {

using vfb::ComponentType;
using vfb::Composition;
using vfb::Connector;
using vfb::DataAccessKind;
using vfb::DataElement;
using vfb::DeploymentPlan;
using vfb::find_port;
using vfb::is_write;
using vfb::InstanceDeployment;
using vfb::Operation;
using vfb::Port;
using vfb::PortDirection;
using vfb::PortInterface;
using vfb::Runnable;
using vfb::RunnableTrigger;
using Task = vfb::ElaboratedTask;

const DataElement* find_element(const PortInterface& iface,
                                std::string_view name) {
  for (const auto& e : iface.elements) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const Operation* find_operation(const PortInterface& iface,
                                std::string_view name) {
  for (const auto& o : iface.operations) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

std::string dot(std::string_view a, std::string_view b) {
  return std::string(a) + "." + std::string(b);
}
std::string dot(std::string_view a, std::string_view b, std::string_view c) {
  return dot(a, b) + "." + std::string(c);
}
std::string conn_subject(const Connector& c) {
  return dot(c.from_instance, c.from_port) + "->" +
         dot(c.to_instance, c.to_port);
}

/// One whole-model validation run; collects into `out`.
class Pass {
 public:
  /// `elab` is the elaboration of (model, *plan) and present iff `plan` is;
  /// `chains`, when given, is analyze_chains over it (else V9 runs it).
  Pass(const Composition& model, const DeploymentPlan* plan,
       const std::map<std::string, contracts::Contract, std::less<>>& bound,
       const vfb::Elaboration* elab, const ChainAnalysis* chains)
      : model_(model),
        plan_(plan),
        contracts_(bound),
        elab_(elab),
        chains_(chains),
        plan_free_(elab == nullptr ? vfb::expand_routes(model, nullptr)
                                   : vfb::RouteTable{}),
        table_(elab == nullptr ? plan_free_ : *elab) {}

  Diagnostics run() {
    check_type_references();  // V1/V2/V5 (type level)
    check_connectors();       // V1/V2 (connector level)
    check_connectivity();     // V3
    check_call_graph();       // V1/V2/V3/V6 (server calls)
    if (plan_ != nullptr) {
      check_deployment();  // V1/V2/V5 (plan level)
      check_races();       // V4
    }
    check_contracts();  // V7
    if (!contracts_.empty()) {
      // Whole-program passes (flow_analysis.cpp): transitive ranges and
      // dead flows need only the model; deadline/budget cross-checks need
      // the deployment too.
      check_flow_ranges(model_, table_, contracts_, out_);     // V8/V12
      check_monitor_coverage(model_, plan_, contracts_, out_); // V10
      if (plan_ != nullptr) {
        if (has_latency_assumptions(contracts_)) {  // V9
          if (chains_ != nullptr) {
            check_chain_deadlines(*chains_, out_);
          } else {
            check_chain_deadlines(
                analyze_chains(model_, *plan_, *elab_, contracts_), out_);
          }
        }
        check_resource_budgets(model_, *plan_, *elab_, contracts_,
                               out_);  // V11
        check_detectability(model_, *plan_, *elab_, contracts_,
                            out_);  // V13-V15
      }
    }
    return std::move(out_);
  }

 private:
  // --- V1/V2/V5: every name a type mentions must resolve; accesses and
  // triggers must agree with port kind and direction; timing must be sane.
  void check_type_references() {
    for (const auto& [iname, iface] : model_.interfaces()) {
      for (const auto& e : iface.elements) {
        if (e.bit_length == 0 || e.bit_length > 64) {
          out_.add("V5", Severity::kError, dot(iname, e.name),
                   "element bit_length " + std::to_string(e.bit_length) +
                       " is outside 1..64",
                   "set the element's bit_length to 1..64");
        }
      }
    }
    for (const auto& [tname, type] : model_.types()) {
      for (const auto& p : type.ports) {
        if (model_.find_interface(p.interface) == nullptr) {
          out_.add("V1", Severity::kError, dot(tname, p.name),
                   "port references unknown interface " + p.interface,
                   "add_interface(\"" + p.interface + "\") before the type");
        }
      }
      for (const auto& r : type.runnables) {
        check_runnable(tname, type, r);
      }
    }
    for (const auto& inst : model_.instances()) {
      if (model_.find_type(inst.type) == nullptr) {
        out_.add("V1", Severity::kError, inst.name,
                 "instance references unknown component type " + inst.type,
                 "add_type(\"" + inst.type + "\") before the instance");
      }
    }
  }

  void check_runnable(const std::string& tname, const ComponentType& type,
                      const Runnable& r) {
    for (const auto& acc : r.accesses) {
      const std::string subject = dot(tname, r.name, acc.port);
      const Port* p = find_port(type, acc.port);
      if (p == nullptr) {
        out_.add("V1", Severity::kError, subject,
                 "data access on unknown port " + acc.port);
        continue;
      }
      const PortInterface* iface = model_.find_interface(p->interface);
      if (iface == nullptr) continue;  // flagged at the port already
      if (iface->kind != PortInterface::Kind::kSenderReceiver) {
        out_.add("V2", Severity::kError, subject,
                 "data access on non-SR port " + acc.port,
                 "use server_calls for client-server ports");
        continue;
      }
      if (find_element(*iface, acc.element) == nullptr) {
        out_.add("V1", Severity::kError, subject + "." + acc.element,
                 "interface " + iface->name + " has no element " + acc.element);
      }
      if (is_write(acc.kind) && p->direction != PortDirection::kProvided) {
        out_.add("V2", Severity::kError, subject,
                 "runnable " + r.name + " writes required port " + acc.port,
                 "writes go through provided ports");
      }
      if (!is_write(acc.kind) && p->direction != PortDirection::kRequired) {
        out_.add("V2", Severity::kError, subject,
                 "runnable " + r.name + " reads provided port " + acc.port,
                 "reads go through required ports");
      }
    }
    switch (r.trigger.kind) {
      case RunnableTrigger::Kind::kTiming:
        if (r.trigger.period <= 0) {
          out_.add("V5", Severity::kError, dot(tname, r.name),
                   "timing runnable " + r.name + " has no period",
                   "set trigger = RunnableTrigger::timing(period)");
        } else if (r.wcet_bound > 0 && r.wcet_bound >= r.trigger.period) {
          out_.add("V5", Severity::kWarning, dot(tname, r.name),
                   "declared wcet_bound >= trigger period: the task can never "
                   "complete within its activation window");
        }
        break;
      case RunnableTrigger::Kind::kDataReceived: {
        const Port* p = find_port(type, r.trigger.port);
        if (p == nullptr) {
          out_.add("V1", Severity::kError, dot(tname, r.name, r.trigger.port),
                   "data-received trigger on unknown port " + r.trigger.port);
          break;
        }
        const PortInterface* iface = model_.find_interface(p->interface);
        if (iface != nullptr &&
            find_element(*iface, r.trigger.element) == nullptr) {
          out_.add("V1", Severity::kError,
                   dot(tname, r.name, r.trigger.port) + "." + r.trigger.element,
                   "data-received trigger on unknown element " +
                       r.trigger.element);
        }
        if (p->direction != PortDirection::kRequired) {
          out_.add("V5", Severity::kError, dot(tname, r.name, r.trigger.port),
                   "data-received trigger on provided port " + r.trigger.port,
                   "data-received events fire on required ports only");
        }
        break;
      }
      case RunnableTrigger::Kind::kInit:
        break;
    }
  }

  // --- V1/V2: connector endpoints resolve; direction, interface kind and
  // element sets agree; a required port is fed at most once.
  void check_connectors() {
    std::map<std::pair<std::string, std::string>, int> feeds;
    for (const auto& c : model_.connectors()) {
      const Port* from = resolve_connector_end(c, c.from_instance, c.from_port);
      const Port* to = resolve_connector_end(c, c.to_instance, c.to_port);
      if (to != nullptr) ++feeds[{c.to_instance, c.to_port}];
      if (from == nullptr || to == nullptr) continue;
      if (from->direction != PortDirection::kProvided) {
        out_.add("V2", Severity::kError, conn_subject(c),
                 "connector source " + c.from_port + " is not a provided port",
                 "swap the connector endpoints");
      }
      if (to->direction != PortDirection::kRequired) {
        out_.add("V2", Severity::kError, conn_subject(c),
                 "connector target " + c.to_port + " is not a required port",
                 "swap the connector endpoints");
      }
      if (from->interface != to->interface) {
        out_.add("V2", Severity::kError, conn_subject(c),
                 "connector interface mismatch: " + from->interface + " vs " +
                     to->interface + interface_mismatch_detail(from, to),
                 "connected ports must share one interface definition");
      }
    }
    for (const auto& [key, n] : feeds) {
      if (n > 1) {
        out_.add("V2", Severity::kError, dot(key.first, key.second),
                 "required port " + dot(key.first, key.second) +
                     " fed by multiple connectors",
                 "a required port accepts exactly one feeding connector");
      }
    }
  }

  /// When two differently-named interfaces collide on a connector, say how
  /// far apart they actually are (kind / element set / structurally equal).
  std::string interface_mismatch_detail(const Port* from, const Port* to) {
    const PortInterface* fi = model_.find_interface(from->interface);
    const PortInterface* ti = model_.find_interface(to->interface);
    if (fi == nullptr || ti == nullptr) return {};
    if (fi->kind != ti->kind) {
      return " (kind mismatch: sender-receiver vs client-server)";
    }
    std::vector<std::string> only_from;
    std::vector<std::string> only_to;
    for (const auto& e : fi->elements) {
      if (find_element(*ti, e.name) == nullptr) only_from.push_back(e.name);
    }
    for (const auto& e : ti->elements) {
      if (find_element(*fi, e.name) == nullptr) only_to.push_back(e.name);
    }
    if (only_from.empty() && only_to.empty()) {
      return " (element sets agree; the interfaces differ in name only)";
    }
    std::string detail = " (element-set disagreement:";
    for (const auto& e : only_from) detail += " -" + e;
    for (const auto& e : only_to) detail += " +" + e;
    return detail + ")";
  }

  const Port* resolve_connector_end(const Connector& c,
                                    const std::string& instance,
                                    const std::string& port) {
    const auto* inst = model_.find_instance(instance);
    if (inst == nullptr) {
      out_.add("V1", Severity::kError, conn_subject(c),
               "connector references unknown instance " + instance);
      return nullptr;
    }
    const ComponentType* type = model_.find_type(inst->type);
    if (type == nullptr) return nullptr;  // instance already flagged
    const Port* p = find_port(*type, port);
    if (p == nullptr) {
      out_.add("V1", Severity::kError, conn_subject(c),
               "instance " + instance + " has no port " + port);
    }
    return p;
  }

  // --- V3: required ports that are read but never fed; elements carried by
  // a connector that no runnable ever writes or reads.
  void check_connectivity() {
    for (const auto& inst : model_.instances()) {
      const ComponentType* type = model_.find_type(inst.type);
      if (type == nullptr) continue;
      for (const auto& p : type->ports) {
        const PortInterface* iface = model_.find_interface(p.interface);
        if (iface == nullptr ||
            iface->kind != PortInterface::Kind::kSenderReceiver) {
          continue;
        }
        if (p.direction == PortDirection::kRequired &&
            model_.connection_to(inst.name, p.name) == nullptr) {
          if (port_is_read(*type, p.name)) {
            out_.add("V3", Severity::kWarning, dot(inst.name, p.name),
                     "required port is read but has no feeding connector: "
                     "reads only ever see the init value",
                     "add_connector({provider, port, \"" + inst.name +
                         "\", \"" + p.name + "\"})");
          } else {
            out_.add("V3", Severity::kInfo, dot(inst.name, p.name),
                     "required port is not connected");
          }
        }
        if (p.direction == PortDirection::kProvided &&
            model_.connections_from(inst.name, p.name).empty() &&
            port_is_written(*type, p.name)) {
          out_.add("V3", Severity::kInfo, dot(inst.name, p.name),
                   "writes to unconnected provided port reach no receiver");
        }
      }
    }
    for (const auto& route : table_.routes) {
      const Connector& c = *route.connector;
      const std::string& elem = route.element->name;
      const ComponentType* to_type = model_.find_type_of(c.to_instance);
      if (to_type == nullptr) continue;
      const ComponentType* from_type = model_.find_type_of(c.from_instance);
      if (!element_is_written(*from_type, c.from_port, elem)) {
        out_.add("V3", Severity::kInfo, route.sender_key,
                 "element is never written by any runnable of " +
                     from_type->name + "; receivers only ever see init");
      }
      if (!element_is_read(*to_type, c.to_port, elem)) {
        out_.add("V3", Severity::kInfo, route.receiver_key,
                 "element is delivered but never read by any runnable of " +
                     to_type->name);
      }
    }
  }

  static bool port_is_read(const ComponentType& type, std::string_view port) {
    for (const auto& r : type.runnables) {
      if (r.trigger.kind == RunnableTrigger::Kind::kDataReceived &&
          r.trigger.port == port) {
        return true;
      }
      for (const auto& acc : r.accesses) {
        if (!is_write(acc.kind) && acc.port == port) return true;
      }
    }
    return false;
  }
  static bool port_is_written(const ComponentType& type,
                              std::string_view port) {
    for (const auto& r : type.runnables) {
      for (const auto& acc : r.accesses) {
        if (is_write(acc.kind) && acc.port == port) return true;
      }
    }
    return false;
  }
  static bool element_is_written(const ComponentType& type,
                                 std::string_view port,
                                 std::string_view element) {
    for (const auto& r : type.runnables) {
      for (const auto& acc : r.accesses) {
        if (is_write(acc.kind) && acc.port == port && acc.element == element) {
          return true;
        }
      }
    }
    return false;
  }
  static bool element_is_read(const ComponentType& type, std::string_view port,
                              std::string_view element) {
    for (const auto& r : type.runnables) {
      if (r.trigger.kind == RunnableTrigger::Kind::kDataReceived &&
          r.trigger.port == port && r.trigger.element == element) {
        return true;
      }
      for (const auto& acc : r.accesses) {
        if (!is_write(acc.kind) && acc.port == port &&
            acc.element == element) {
          return true;
        }
      }
    }
    return false;
  }

  // --- V1/V2/V3/V6: server calls resolve end to end (format, port, kind,
  // connector, operation, registered handler) and the instance-level call
  // graph is acyclic.
  void check_call_graph() {
    // instance -> (server instance, call label) edges.
    std::map<std::string, std::vector<std::pair<std::string, std::string>>>
        edges;
    for (const auto& inst : model_.instances()) {
      const ComponentType* type = model_.find_type(inst.type);
      if (type == nullptr) continue;
      for (const auto& r : type->runnables) {
        for (const auto& call : r.server_calls) {
          check_server_call(inst.name, *type, r, call, edges);
        }
      }
    }
    detect_cycles(edges);
  }

  void check_server_call(
      const std::string& instance, const ComponentType& type,
      const Runnable& r, const std::string& call,
      std::map<std::string,
               std::vector<std::pair<std::string, std::string>>>& edges) {
    const std::string subject = dot(instance, r.name);
    const auto sep = call.find('.');
    if (sep == std::string::npos) {
      out_.add("V1", Severity::kError, subject,
               "server call must be 'port.operation': " + call);
      return;
    }
    const std::string port = call.substr(0, sep);
    const std::string op = call.substr(sep + 1);
    const Port* p = find_port(type, port);
    if (p == nullptr) {
      out_.add("V1", Severity::kError, subject,
               "server call on unknown port " + port + ": " + call);
      return;
    }
    const PortInterface* iface = model_.find_interface(p->interface);
    if (iface == nullptr) return;  // dangling interface flagged already
    if (iface->kind != PortInterface::Kind::kClientServer ||
        p->direction != PortDirection::kRequired) {
      out_.add("V2", Severity::kError, subject,
               "server call through a port that is not a required "
               "client-server port: " +
                   call);
      return;
    }
    if (find_operation(*iface, op) == nullptr) {
      out_.add("V1", Severity::kError, subject,
               "unknown operation in server call: " + call);
      return;
    }
    const Connector* conn = model_.connection_to(instance, port);
    if (conn == nullptr) {
      out_.add("V3", Severity::kError, subject,
               "server call on unconnected port " + dot(instance, port),
               "connect the port to a providing server instance");
      return;
    }
    edges[instance].emplace_back(conn->from_instance, call);
    const auto* server_inst = model_.find_instance(conn->from_instance);
    if (server_inst != nullptr &&
        model_.operation_handler(server_inst->type, conn->from_port, op) ==
            nullptr) {
      out_.add("V1", Severity::kError, subject,
               "no handler registered for operation " + op + " on type " +
                   server_inst->type,
               "set_operation_handler(\"" + server_inst->type + "\", \"" +
                   conn->from_port + "\", \"" + op + "\", ...)");
    }
  }

  void detect_cycles(
      const std::map<std::string,
                     std::vector<std::pair<std::string, std::string>>>&
          edges) {
    enum class Color { kWhite, kGrey, kBlack };
    std::map<std::string, Color> color;
    std::vector<std::string> path;
    auto dfs = [&](auto&& self, const std::string& node) -> void {
      color[node] = Color::kGrey;
      path.push_back(node);
      auto it = edges.find(node);
      if (it != edges.end()) {
        for (const auto& [server, call] : it->second) {
          const auto cit = color.find(server);
          const Color c = cit == color.end() ? Color::kWhite : cit->second;
          if (c == Color::kGrey) {
            std::string cycle;
            auto start = std::find(path.begin(), path.end(), server);
            for (auto p = start; p != path.end(); ++p) cycle += *p + " -> ";
            cycle += server;
            out_.add("V6", Severity::kError, server,
                     "client-server call cycle: " + cycle,
                     "synchronous call cycles deadlock; break the cycle or "
                     "invert one dependency");
          } else if (c == Color::kWhite) {
            self(self, server);
          }
        }
      }
      path.pop_back();
      color[node] = Color::kBlack;
    };
    for (const auto& [node, _] : edges) {
      const auto cit = color.find(node);
      if (cit == color.end() || cit->second == Color::kWhite) dfs(dfs, node);
    }
  }

  // --- V1/V2/V5 (plan level): the bus has a bit time and a sane cycle,
  // every instance deployed on a named ECU, partitions resolve,
  // client-server connectors stay on one ECU, per-ECU task budget holds.
  void check_deployment() {
    if (plan_->bus_bitrate() <= 0) {
      const std::string bus =
          plan_->bus == vfb::BusKind::kCan ? "can" : "flexray";
      out_.add("V5", Severity::kError, "plan." + bus + ".bitrate_bps",
               "bus bitrate must be positive, got " +
                   std::to_string(plan_->bus_bitrate()) + " bps",
               "set plan." + bus + ".bitrate_bps to the bus's bit rate");
    }
    if (plan_->bus == vfb::BusKind::kFlexRay) check_flexray_timing();
    for (const auto& inst : model_.instances()) {
      const auto it = plan_->instances.find(inst.name);
      if (it == plan_->instances.end()) {
        out_.add("V1", Severity::kError, inst.name,
                 "no deployment for instance " + inst.name,
                 "plan.instances[\"" + inst.name + "\"] = {.ecu = ...}");
        continue;
      }
      const InstanceDeployment& dep = it->second;
      if (!dep.partition.empty()) {
        const bool found = std::any_of(
            plan_->partitions.begin(), plan_->partitions.end(),
            [&](const vfb::PartitionSpec& p) {
              return p.name == dep.partition && p.ecu == dep.ecu;
            });
        if (!found) {
          out_.add("V1", Severity::kError, inst.name,
                   "instance assigned to unknown partition " + dep.partition +
                       " on ECU " + dep.ecu,
                   "declare the partition in plan.partitions");
        }
      }
      check_budget(inst.name, dep);
    }
    for (const auto& [name, dep] : plan_->instances) {
      if (dep.ecu.empty()) {
        out_.add("V1", Severity::kError, name,
                 "instance " + name + " is deployed on an unnamed ECU",
                 "plan.instances[\"" + name + "\"].ecu = \"<ECU name>\"");
      }
      if (model_.find_instance(name) == nullptr) {
        out_.add("V1", Severity::kWarning, name,
                 "deployment for unknown instance " + name);
      }
    }
    for (const auto& c : model_.connectors()) {
      const auto from = plan_->instances.find(c.from_instance);
      const auto to = plan_->instances.find(c.to_instance);
      if (from == plan_->instances.end() || to == plan_->instances.end()) {
        continue;  // undeployed ends flagged above
      }
      const ComponentType* type = model_.find_type_of(c.from_instance);
      const Port* p = type == nullptr ? nullptr : find_port(*type, c.from_port);
      if (p == nullptr) continue;
      const PortInterface* iface = model_.find_interface(p->interface);
      if (iface != nullptr &&
          iface->kind == PortInterface::Kind::kClientServer &&
          from->second.ecu != to->second.ecu) {
        out_.add("V2", Severity::kError, conn_subject(c),
                 "client-server connector spans ECUs (unsupported): " +
                     c.from_instance + " -> " + c.to_instance,
                 "deploy client and server on one ECU");
      }
    }
  }

  void check_flexray_timing() {
    const auto& fr = plan_->flexray;
    if (fr.network_idle < 0) {
      out_.add("V5", Severity::kError, "plan.flexray.network_idle",
               "FlexRay network idle time must be >= 0, got " +
                   std::to_string(fr.network_idle) + " ns",
               "set plan.flexray.network_idle to 0 or more");
    }
    if (fr.minislots > 0 && fr.minislot_len <= 0) {
      out_.add("V5", Severity::kError, "plan.flexray.minislot_len",
               "FlexRay minislot length must be positive, got " +
                   std::to_string(fr.minislot_len) + " ns",
               "set plan.flexray.minislot_len, or minislots = 0 for no "
               "dynamic segment");
    }
  }

  void check_budget(const std::string& instance,
                    const InstanceDeployment& dep) {
    const ComponentType* type = model_.find_type_of(instance);
    if (dep.budget <= 0 || type == nullptr) return;
    for (const auto& r : type->runnables) {
      if (r.wcet_bound > 0 && r.wcet_bound > dep.budget) {
        out_.add("V5", Severity::kWarning, dot(instance, r.name),
                 "execution budget is below the runnable's declared WCET "
                 "bound: every job overruns",
                 "raise the budget or split the runnable");
      }
    }
  }

  // --- V4: cross-task data races over the elaborated task map (V5's
  // per-ECU task-count limit reads the same task list). Explicit accesses
  // touch live RTE slots, so a preempting writer tears a lower-priority
  // reader (torn read) and two writers in different tasks lose updates;
  // implicit accesses are buffered at task boundaries and pass by
  // construction.
  void check_races() {
    for (const auto& ecu : elab_->ecus) {
      const auto periodic = static_cast<std::size_t>(std::count_if(
          elab_->tasks.begin(), elab_->tasks.end(),
          [&](const Task& t) { return t.ecu == ecu && t.period > 0; }));
      if (periodic > vfb::kMaxPeriodicTasksPerEcu) {
        out_.add("V5", Severity::kError, ecu,
                 "too many periodic tasks on ECU " + ecu + " (" +
                     std::to_string(periodic) + " > " +
                     std::to_string(vfb::kMaxPeriodicTasksPerEcu) + ")",
                 "merge runnable periods or split the deployment");
      }
    }

    for (const auto& route : table_.routes) {
      if (route.from_ecu.empty() || route.to_ecu.empty() || route.cross_ecu) {
        continue;  // cross-ECU: decoupled by the bus, no shared slot
      }
      const Connector& c = *route.connector;
      const ComponentType* to_type = model_.find_type_of(c.to_instance);
      if (to_type == nullptr) continue;
      check_element_races(route, *model_.find_type_of(c.from_instance),
                          *to_type);
    }

    // Lost updates inside one instance: two explicit writers of the same
    // (port, element) mapped to different tasks.
    for (const auto& inst : model_.instances()) {
      const ComponentType* type = model_.find_type_of(inst.name);
      if (type == nullptr || plan_->instances.count(inst.name) == 0) continue;
      check_intra_instance_races(inst.name, *type);
    }
  }

  /// Can `a` and `b` interleave mid-execution? Distinct tasks at distinct
  /// priorities under preemptive dispatch; TT table entries are
  /// non-preemptive among themselves but event tasks still preempt them.
  static bool can_preempt_pair(const Task& a, const Task& b) {
    if (a.name == b.name) return false;       // same task: serialized
    if (a.priority == b.priority) return false;  // FIFO peers never preempt
    if (a.table_dispatched && b.table_dispatched) return false;  // TT slots
    return true;
  }

  void emit_race(const char* kind, const std::string& subject,
                 const std::string& victim_access, const Task& victim,
                 const std::string& aggressor_access, const Task& aggressor) {
    const Task& hi = aggressor.priority > victim.priority ? aggressor : victim;
    const Task& lo = aggressor.priority > victim.priority ? victim : aggressor;
    out_.add("V4", Severity::kWarning, subject,
             std::string(kind) + " hazard: " + victim_access +
                 " races with " + aggressor_access + "; task " + hi.name +
                 " (prio " + std::to_string(hi.priority) + ") preempts task " +
                 lo.name + " (prio " + std::to_string(lo.priority) + ")",
             "declare the accesses implicit (buffered) or map both runnables "
             "into one task");
  }

  void check_element_races(const vfb::Route& route,
                           const ComponentType& from_type,
                           const ComponentType& to_type) {
    const Connector& c = *route.connector;
    const std::string& elem = route.element->name;
    struct Acc {
      const Runnable* runnable;
      const Task* task;
    };
    std::vector<Acc> writers;
    std::vector<Acc> readers;
    for (const auto& r : from_type.runnables) {
      for (const auto& acc : r.accesses) {
        if (acc.port == c.from_port && acc.element == elem &&
            acc.kind == DataAccessKind::kExplicitWrite) {
          if (const Task* t = elab_->task_for(c.from_instance, r.name)) {
            writers.push_back({&r, t});
          }
        }
      }
    }
    for (const auto& r : to_type.runnables) {
      for (const auto& acc : r.accesses) {
        if (acc.port == c.to_port && acc.element == elem &&
            acc.kind == DataAccessKind::kExplicitRead) {
          if (const Task* t = elab_->task_for(c.to_instance, r.name)) {
            readers.push_back({&r, t});
          }
        }
      }
    }
    const std::string& slot = route.receiver_key;
    for (const auto& w : writers) {
      for (const auto& rd : readers) {
        if (!can_preempt_pair(*w.task, *rd.task)) continue;
        emit_race("torn-read", slot,
                  dot(c.to_instance, rd.runnable->name) + " explicit read of " +
                      slot,
                  *rd.task,
                  dot(c.from_instance, w.runnable->name) +
                      " explicit write of " + route.sender_key,
                  *w.task);
      }
    }
  }

  void check_intra_instance_races(const std::string& instance,
                                  const ComponentType& type) {
    // (port, element) -> explicit writers.
    std::map<std::pair<std::string, std::string>,
             std::vector<std::pair<const Runnable*, const Task*>>>
        writers;
    for (const auto& r : type.runnables) {
      for (const auto& acc : r.accesses) {
        if (acc.kind != DataAccessKind::kExplicitWrite) continue;
        if (const Task* t = elab_->task_for(instance, r.name)) {
          writers[{acc.port, acc.element}].emplace_back(&r, t);
        }
      }
    }
    for (const auto& [key, ws] : writers) {
      for (std::size_t i = 0; i < ws.size(); ++i) {
        for (std::size_t j = i + 1; j < ws.size(); ++j) {
          if (!can_preempt_pair(*ws[i].second, *ws[j].second)) continue;
          const std::string slot = dot(instance, key.first, key.second);
          emit_race("lost-update", slot,
                    dot(instance, ws[i].first->name) + " explicit write of " +
                        slot,
                    *ws[i].second,
                    dot(instance, ws[j].first->name) + " explicit write of " +
                        slot,
                    *ws[j].second);
        }
      }
    }
  }

  // --- V7: bound rich-component contracts must be compatible across every
  // connector (source guarantee implies sink assumption), the same predicate
  // contracts::ContractNetwork::check_compatibility applies per connection.
  void check_contracts() {
    for (const auto& [instance, _] : contracts_) {
      if (model_.find_instance(instance) == nullptr) {
        out_.add("V1", Severity::kWarning, instance,
                 "contract bound to unknown instance " + instance);
      }
    }
    if (contracts_.empty()) return;
    for (const auto& route : table_.routes) {
      const Connector& c = *route.connector;
      const std::string& elem = route.element->name;
      const auto from_it = contracts_.find(c.from_instance);
      const auto to_it = contracts_.find(c.to_instance);
      if (from_it == contracts_.end() || to_it == contracts_.end()) continue;
      const contracts::FlowSpec* g =
          flow_of(from_it->second, c.from_port, elem, /*assume=*/false);
      const contracts::FlowSpec* a =
          flow_of(to_it->second, c.to_port, elem, /*assume=*/true);
      if (g == nullptr || a == nullptr) continue;
      for (const auto& violation : contracts::satisfies(*g, *a).violations) {
        out_.add("V7", Severity::kError, conn_subject(c) + "." + elem,
                 "contract incompatibility (" + from_it->second.name +
                     " -> " + to_it->second.name + "): " + violation,
                 "weaken the sink assumption or strengthen the source "
                 "guarantee");
      }
    }
  }

  const Composition& model_;
  const DeploymentPlan* plan_;
  const std::map<std::string, contracts::Contract, std::less<>>& contracts_;
  const vfb::Elaboration* elab_;
  const ChainAnalysis* chains_;
  /// The elaboration's route table, or a plan-free expansion when there is
  /// no plan.
  const vfb::RouteTable plan_free_;
  const vfb::RouteTable& table_;
  Diagnostics out_;
};

}  // namespace

Validator& Validator::with_contract(std::string instance,
                                    contracts::Contract contract) {
  contracts_[std::move(instance)] = std::move(contract);
  return *this;
}

Diagnostics Validator::run() const {
  if (plan_ == nullptr) {
    return Pass(*model_, nullptr, contracts_, nullptr, nullptr).run();
  }
  const vfb::Elaboration elab = vfb::elaborate(*model_, *plan_, contracts_);
  return Pass(*model_, plan_, contracts_, &elab, nullptr).run();
}

namespace {
/// Contracts bound directly on the model (Composition::bind_contract) feed
/// rule V7, so both enforcement points — this static pass and the rv layer's
/// online monitors — check the same specification.
Validator with_model_contracts(Validator v, const vfb::Composition& model) {
  for (const auto& [instance, contract] : model.bound_contracts()) {
    v.with_contract(instance, contract);
  }
  return v;
}
}  // namespace

Diagnostics validate(const vfb::Composition& model) {
  return with_model_contracts(Validator(model), model).run();
}

Diagnostics validate(const vfb::Composition& model,
                     const vfb::DeploymentPlan& plan) {
  return with_model_contracts(Validator(model).with_deployment(plan), model)
      .run();
}

Diagnostics validate(const vfb::Composition& model,
                     const vfb::DeploymentPlan& plan,
                     const vfb::Elaboration& elab,
                     const ChainAnalysis& chains) {
  return Pass(model, &plan, model.bound_contracts(), &elab, &chains).run();
}

}  // namespace orte::validation
