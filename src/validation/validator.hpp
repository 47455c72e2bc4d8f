// Static model validator: whole-model analysis of a Composition (and
// optionally a DeploymentPlan) *before* any runtime object is constructed.
//
// The paper's reliability argument (§2–§3) rests on design-time checks: the
// AUTOSAR methodology validates the system configuration "prior to
// implementation", and SPEEDS-style rich components add contract
// compatibility on top. This pass reports every violation it finds as a
// structured Diagnostic instead of throwing on the first one.
//
// Rule inventory (IDs are stable; DESIGN.md carries the full table):
//  V1 dangling references  — names in instances, ports, accesses, triggers,
//                            connectors, server calls, deployments and
//                            partitions that do not resolve.
//  V2 connector typing     — provided->required direction, interface
//                            agreement (kind / element set named in the
//                            mismatch message), single feed per required
//                            port, access-direction rules, same-ECU
//                            client-server connectors.
//  V3 connectivity         — unconnected required ports that are read,
//                            never-written / never-read elements, server
//                            calls on unconnected ports.
//  V4 data races           — explicit read/write accesses to the same
//                            element from runnables mapped to
//                            different-priority preemptive tasks on one ECU
//                            (torn-read / lost-update hazards); implicit
//                            (buffered) accesses pass by construction.
//  V5 timing sanity        — zero-period timing triggers, wcet_bound >=
//                            period, data-received triggers on provided
//                            ports, budgets below a runnable's WCET, per-ECU
//                            task-count limit.
//  V6 call cycles          — client-server call cycles over server_calls
//                            (instance-level DFS; the cycle is printed).
//  V7 contract mismatch    — a connector whose bound contracts fail the
//                            contracts:: compatibility predicate (source
//                            guarantee must imply sink assumption).
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "contracts/contract.hpp"
#include "validation/diagnostics.hpp"
#include "validation/flow_analysis.hpp"
#include "vfb/deployment.hpp"
#include "vfb/elaboration.hpp"
#include "vfb/model.hpp"

namespace orte::validation {

class Validator {
 public:
  explicit Validator(const vfb::Composition& model) : model_(&model) {}

  /// Enable the deployment-dependent rules (V4 races, parts of V1/V2/V5).
  Validator& with_deployment(const vfb::DeploymentPlan& plan) {
    plan_ = &plan;
    return *this;
  }

  /// Bind a rich-component contract to an instance for rule V7. Flow names
  /// must be "port" (covers every element of the port) or "port.element".
  Validator& with_contract(std::string instance, contracts::Contract contract);

  /// Run every applicable rule; never throws on model defects.
  [[nodiscard]] Diagnostics run() const;

 private:
  const vfb::Composition* model_;
  const vfb::DeploymentPlan* plan_ = nullptr;
  std::map<std::string, contracts::Contract, std::less<>> contracts_;
};

/// Convenience wrappers.
[[nodiscard]] Diagnostics validate(const vfb::Composition& model);
[[nodiscard]] Diagnostics validate(const vfb::Composition& model,
                                   const vfb::DeploymentPlan& plan);
/// validate(model, plan) over an elaboration of (model, plan) and its
/// analyze_chains result that the caller already holds — vfb::System's
/// strict mode, which needs both for generation anyway.
[[nodiscard]] Diagnostics validate(const vfb::Composition& model,
                                   const vfb::DeploymentPlan& plan,
                                   const vfb::Elaboration& elab,
                                   const ChainAnalysis& chains);

}  // namespace orte::validation
