#include "golden.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace e2ebench {

std::uint64_t fnv1a(std::string_view text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

Fingerprint::Fingerprint(orte::sim::Trace& trace) : trace_(trace) {
  trace_.subscribe_ids([this](const orte::sim::TraceEvent& ev) {
    mix(static_cast<std::uint64_t>(ev.when));
    mix(name_hash(category_hashes_, ev.category_id, true));
    mix(name_hash(subject_hashes_, ev.subject_id, false));
    mix(static_cast<std::uint64_t>(ev.value));
    ++records_;
  });
}

void Fingerprint::mix(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xFFu;
    hash_ *= 0x100000001b3ULL;
  }
}

std::uint64_t Fingerprint::name_hash(std::vector<std::uint64_t>& cache,
                                     orte::sim::TraceId id, bool category) {
  if (id >= cache.size()) cache.resize(id + 1, 0);
  if (cache[id] == 0) {
    cache[id] = fnv1a(category ? trace_.category_name(id)
                               : trace_.subject_name(id)) |
                1u;  // never 0, which marks "unset"
  }
  return cache[id];
}

GoldenFile GoldenFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open golden file " + path);
  GoldenFile g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::string seed;
    fields >> workload >> seed;
    Outputs outputs;
    std::string kv;
    while (fields >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("malformed golden field '" + kv + "'");
      }
      outputs[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
    g.set(workload, seed, std::move(outputs));
  }
  return g;
}

void GoldenFile::set(const std::string& workload, const std::string& seed,
                     Outputs outputs) {
  entries_[{workload, seed}] = std::move(outputs);
}

const Outputs* GoldenFile::find(const std::string& workload,
                                const std::string& seed) const {
  const auto it = entries_.find({workload, seed});
  return it == entries_.end() ? nullptr : &it->second;
}

void GoldenFile::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write golden file " + path);
  out << "# Golden simulated outputs of the e2ebench workloads.\n"
         "# Regenerate only for an intended behaviour change:\n"
         "#   python3 e2ebench/run.py --write-golden\n";
  for (const auto& [key, outputs] : entries_) {
    out << key.first << ' ' << key.second;
    for (const auto& [k, v] : outputs) out << ' ' << k << '=' << v;
    out << '\n';
  }
}

void Checker::check(const std::string& what, const Outputs& expected,
                    const Outputs& actual) {
  ++attempted_;
  std::string diff;
  for (const auto& [k, v] : expected) {
    const auto it = actual.find(k);
    const std::string got = it == actual.end() ? "<missing>" : it->second;
    if (got != v) diff += " " + k + ": expected " + v + ", got " + got + ";";
  }
  for (const auto& [k, v] : actual) {
    if (expected.count(k) == 0) diff += " " + k + ": unexpected " + v + ";";
  }
  if (!diff.empty()) report(what, "output mismatch:" + diff);
}

void Checker::fail(const std::string& what, const std::string& message) {
  ++attempted_;
  report(what, message);
}

void Checker::report(const std::string& what, const std::string& message) {
  ++failed_;
  if (++reported_ <= 20) {
    std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(), message.c_str());
  }
}

}  // namespace e2ebench
