// Golden-output checking. The simulator is deterministic, so a workload's
// simulated outputs (not its host timings) can be compared exactly against
// values committed in golden.txt.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace e2ebench {

/// FNV-1a over every emitted record's (time, category, subject, value),
/// collected through the public Trace::subscribe_ids. Each interned ID is
/// resolved to its name once and the name's hash cached, so the fingerprint
/// does not depend on the order in which the program interns names.
class Fingerprint {
 public:
  /// Subscribe to `trace`; both must outlive the emissions.
  explicit Fingerprint(orte::sim::Trace& trace);
  Fingerprint(const Fingerprint&) = delete;
  Fingerprint& operator=(const Fingerprint&) = delete;
  [[nodiscard]] std::uint64_t value() const { return hash_; }
  [[nodiscard]] std::uint64_t records() const { return records_; }

 private:
  void mix(std::uint64_t word);
  std::uint64_t name_hash(std::vector<std::uint64_t>& cache,
                          orte::sim::TraceId id, bool category);

  orte::sim::Trace& trace_;
  std::vector<std::uint64_t> category_hashes_;  ///< By category ID; 0 = unset.
  std::vector<std::uint64_t> subject_hashes_;   ///< By subject ID; 0 = unset.
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t records_ = 0;
};

[[nodiscard]] std::uint64_t fnv1a(std::string_view text,
                                  std::uint64_t hash = 0xcbf29ce484222325ULL);
[[nodiscard]] std::string hex(std::uint64_t value);

/// Outputs of one golden entry: key -> exact value text.
using Outputs = std::map<std::string, std::string>;

/// golden.txt: one line per (workload, seed) entry,
///   <workload> <seed or *> <key>=<value> <key>=<value> ...
/// `*` marks a workload whose inputs do not depend on the seed.
class GoldenFile {
 public:
  /// Parse `path`; a missing file is an error (throws).
  static GoldenFile load(const std::string& path);
  void set(const std::string& workload, const std::string& seed,
           Outputs outputs);
  /// The entry, or null when the file holds none for (workload, seed).
  [[nodiscard]] const Outputs* find(const std::string& workload,
                                    const std::string& seed) const;
  void save(const std::string& path) const;

 private:
  std::map<std::pair<std::string, std::string>, Outputs> entries_;
};

/// Tallies operations and the mismatches among them. A mismatch never
/// throws: it counts as one failed operation and is described on stderr.
class Checker {
 public:
  /// One operation whose outputs must equal `expected` key by key.
  void check(const std::string& what, const Outputs& expected,
             const Outputs& actual);
  /// One operation that threw (or otherwise failed) with `message`.
  void fail(const std::string& what, const std::string& message);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  void report(const std::string& what, const std::string& message);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t reported_ = 0;  ///< Mismatch messages printed (capped).
};

}  // namespace e2ebench
