// Test helper: an FNV-1a fingerprint of everything a Trace emits.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/trace.hpp"

namespace orte_test {

/// FNV-1a over every record a Trace emits: (time, category, subject, value).
/// Names are hashed as strings, so the hash does not depend on intern IDs.
struct TraceHash {
  explicit TraceHash(orte::sim::Trace& trace) {
    trace.subscribe_ids([this, &trace](const orte::sim::TraceEvent& e) {
      mix(static_cast<std::uint64_t>(e.when));
      for (const char c : trace.category_name(e.category_id)) {
        mix(static_cast<unsigned char>(c));
      }
      mix(0x100);
      for (const char c : trace.subject_name(e.subject_id)) {
        mix(static_cast<unsigned char>(c));
      }
      mix(0x100);
      mix(static_cast<std::uint64_t>(e.value));
      ++records;
    });
  }
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  std::uint64_t h = 1469598103934665603ull;
  std::size_t records = 0;
};

}  // namespace orte_test
