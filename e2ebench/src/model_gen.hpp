// Seeded generator of multi-supplier, multi-ECU CAN compositions for the
// gen_can_build workload.
//
// The grammar extends the random chain models of the property tests
// (random_vfb_model / ChainBoundFuzz) along the dimensions that change how
// much work each build layer does and which RTE paths the run exercises:
//
//  * suppliers (2..4) and ECUs (2..4), stratified by model index so every
//    model set covers each (suppliers, ECUs) shape equally often — build
//    cost grows with both (validator passes walk instances and connectors,
//    the generator emits one task per (instance, period) and one COM route
//    per cross-ECU receiver), so stratifying keeps the per-set cost from
//    swinging with the seed;
//  * periodic and data-received chains — the two task kinds the generator
//    derives, and the two chain shapes V9's holistic fixpoint bounds;
//  * implicit and explicit accesses — the two RTE buffer paths (implicit
//    snapshot/outbox maps vs. the live slot);
//  * queued elements with reject or drop-oldest overflow and short queues
//    read by slower periodic consumers — the bounded-queue path, so
//    Rte::overflows() moves;
//  * range and latency contracts — V7/V8/V9 work at build time and range,
//    arrival and latency monitors at run time.
//
// Every model validates without errors (the benchmark checks this; the only
// warnings are V13/V14, which CAN's babbling-idiot case raises by
// construction), and the same (seed, index) always yields a byte-identical
// model: GeneratedModel::description renders everything the generator drew,
// and the self-test compares two generations of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vfb/deployment.hpp"
#include "vfb/model.hpp"

namespace e2ebench {

struct GeneratedModel {
  std::string name;
  orte::vfb::Composition model;
  orte::vfb::DeploymentPlan plan;
  std::string description;  ///< Canonical rendering of every drawn choice.
};

/// Model `index` of the set drawn from `seed`.
[[nodiscard]] GeneratedModel generate_model(std::uint64_t seed,
                                            std::size_t index);

/// The first `count` models of the set drawn from `seed`.
[[nodiscard]] std::vector<GeneratedModel> generate_model_set(
    std::uint64_t seed, std::size_t count);

}  // namespace e2ebench
