// Whole-program contract dataflow analysis: the transitive half of the
// design-time validation story (§2–§3).
//
// V7 checks each connector pairwise — a source guarantee against the
// adjacent sink assumption. These passes reason about whole chains instead:
//
//  V8  transitive flow ranges  — abstract interpretation of FlowSpec value
//                                intervals through connectors and runnable
//                                read->write relays: empty intersections and
//                                unconstrained transitive sources that no
//                                pairwise check can see.
//  V9  end-to-end deadlines    — the holistic fixpoint (analysis::
//                                HolisticModel) over the tasks of the
//                                vfb::Elaboration, including data-received
//                                event tasks and FlexRay static-slot hops;
//                                each latency assumption is compared against
//                                the computed bound.
//  V10 monitor coverage        — which contract obligations the rv layer
//                                would actually watch at runtime (through
//                                vfb::resolve_flow, the resolution the
//                                elaborated monitor specs use); obligations
//                                that resolve to no monitor are certified by
//                                nothing.
//  V11 budget consistency      — generated per-instance load and per-ECU /
//                                per-bus sums against the contracts'
//                                vertical ResourceSpec assumptions.
//  V12 dead flows              — liveness on the V8 dataflow graph: reads
//                                whose transitive source never produces
//                                fresh data, and writes whose values
//                                dead-end in relay chains (both only where
//                                the local rule V3 stays silent).
//
// analyze_chains() is shared with vfb::System, which runs it once per build
// over its own elaboration: strict validation judges the result (V9) and the
// same bounds are recorded next to each LatencyMonitor threshold — the
// bound >= observed cross-check that certifies the dynamic layer against the
// static one.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "contracts/contract.hpp"
#include "validation/diagnostics.hpp"
#include "vfb/deployment.hpp"
#include "vfb/elaboration.hpp"
#include "vfb/model.hpp"

namespace orte::validation {

/// One statically bounded end-to-end obligation: a latency assumption of a
/// bound contract, resolved through the feeding connector to its producer
/// and consuming event task, with the holistic response-time bound of that
/// chain (measured from the chain head's release — an over-approximation of
/// what the matching rv::LatencyMonitor observes from the producer's write).
struct ChainBound {
  std::string contract;   ///< Contract carrying the latency assumption.
  std::string instance;   ///< Consuming instance the contract is bound to.
  std::string flow;       ///< Assumption flow name ("port" or "port.element").
  std::string sink_task;  ///< Generated task bounding the chain tail; empty =
                          ///< no data-received runnable (chain ends at bus
                          ///< delivery).
  sim::Duration deadline = 0;  ///< The contracted latency obligation.
  sim::Duration bound = 0;     ///< Holistic bound; valid when computable.
  bool computable = false;     ///< False: chain unresolvable or the fixpoint
                               ///< found the model unschedulable/divergent.
};

/// Result of folding the generated deployment into the holistic fixpoint.
struct ChainAnalysis {
  bool schedulable = false;  ///< Holistic verdict over tasks and messages.
  int iterations = 0;        ///< Fixpoint iterations until convergence.
  std::vector<ChainBound> bounds;  ///< One entry per latency assumption.
};

/// Fold the elaborated tasks and writer tasks into the holistic fixpoint and
/// bound every latency assumption. The bus model is deliberately
/// conservative: one 8-byte message per cross-ECU activation edge (more
/// frames than the generator's PDU packing emits), and a FlexRay slot count
/// that grows with the message count (a longer cycle can only raise the
/// bound).
[[nodiscard]] ChainAnalysis analyze_chains(
    const vfb::Composition& model, const vfb::DeploymentPlan& plan,
    const std::map<std::string, contracts::Contract, std::less<>>& contracts);
/// The same over an elaboration of (model, plan) the caller already holds.
[[nodiscard]] ChainAnalysis analyze_chains(
    const vfb::Composition& model, const vfb::DeploymentPlan& plan,
    const vfb::Elaboration& elab,
    const std::map<std::string, contracts::Contract, std::less<>>& contracts);

/// True when some contract carries a latency assumption (the only clauses
/// analyze_chains bounds).
[[nodiscard]] bool has_latency_assumptions(
    const std::map<std::string, contracts::Contract, std::less<>>& contracts);

/// One runnable's dataflow footprint: the slots it reads (data accesses plus
/// its data-received trigger) and the slots it writes.
struct RunnableFlow {
  std::string instance;
  const vfb::Runnable* runnable = nullptr;
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  /// Provided-port (port, element) per written slot, parallel to `writes`.
  std::vector<std::pair<std::string, std::string>> write_ports;
};

/// The slot dataflow graph over the route table (slot keys have Rte::key's
/// shape, so subjects line up with the runtime trace). Built by V8/V12 and
/// the detectability analysis (V13–V15) alike.
struct FlowGraph {
  std::vector<RunnableFlow> runnables;
  std::vector<vfb::Route> edges;  ///< One per connector element.
  std::set<std::string> written;  ///< Slots some runnable writes.
};
/// The graph over a route table: vfb::expand_routes(), or an elaboration.
[[nodiscard]] FlowGraph build_flow_graph(const vfb::RouteTable& table);

/// The FlowSpec a contract declares for (port, element): the "port.element"
/// clause, else the whole-port "port" clause; null when neither exists.
[[nodiscard]] const contracts::FlowSpec* flow_of(const contracts::Contract& c,
                                                 const std::string& port,
                                                 const std::string& element,
                                                 bool assume);

/// V8 + V12: build the slot dataflow graph of `table` (connectors plus
/// runnable read->write relays), propagate guarantee intervals to a
/// fixpoint, and report transitive range conflicts and dead flows.
void check_flow_ranges(
    const vfb::Composition& model, const vfb::RouteTable& table,
    const std::map<std::string, contracts::Contract, std::less<>>& contracts,
    Diagnostics& out);

/// V9: judge every latency assumption analyze_chains bounded — error when
/// the obligation is below the static bound, info (with slack) otherwise,
/// warning when the chain cannot be bounded.
void check_chain_deadlines(const ChainAnalysis& chains, Diagnostics& out);

/// V10: cross-check contract obligations against the monitor inventory
/// vfb::System compiles. `plan` may be null (the runtime_verification
/// opt-out is then not checkable).
void check_monitor_coverage(
    const vfb::Composition& model, const vfb::DeploymentPlan* plan,
    const std::map<std::string, contracts::Contract, std::less<>>& contracts,
    Diagnostics& out);

/// V11: generated load vs vertical ResourceSpec assumptions — per-instance
/// CPU share, per-ECU sums, and bus bandwidth against the plan's bitrate.
void check_resource_budgets(
    const vfb::Composition& model, const vfb::DeploymentPlan& plan,
    const vfb::Elaboration& elab,
    const std::map<std::string, contracts::Contract, std::less<>>& contracts,
    Diagnostics& out);

}  // namespace orte::validation
