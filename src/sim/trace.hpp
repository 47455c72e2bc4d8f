// Structured event trace. Observers (tests, benches, runtime monitors)
// subscribe to the live stream; records are also retained for post-run
// queries when retention is on.
//
// Category and subject strings are interned into dense integer TraceIds at
// first sight, so the hot path is allocation-free and hash-light: emit()
// resolves both IDs with one transparent hash lookup each (no std::string
// construction) and then works on one dense per-category row — its emission
// count, a count per subject ID, and the listeners that observe the
// category. Listeners subscribe to one category or to all of them; an emit
// calls only its category's listeners and the all-category ones, in
// subscription order, with a TraceEvent that carries the IDs (names are
// recoverable through category_name / subject_name). A TraceRecord with
// the name strings is built only when retention is on. IDs are stable for
// the lifetime of the Trace — clear() resets counts and records but keeps
// the intern tables and the subscriptions.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace orte::sim {

/// Dense intern ID for a trace category or subject string. IDs are
/// per-Trace, assigned in first-sight order, and never recycled.
using TraceId = std::uint32_t;

/// "Not interned (yet)" — returned by the const lookups for unseen names.
inline constexpr TraceId kNoTraceId = 0xFFFFFFFFu;

struct TraceRecord {
  Time when = 0;
  std::string category;  // e.g. "task.release", "can.tx", "budget.overrun"
  std::string subject;   // task/frame/node name
  std::int64_t value = 0;
  std::string detail;
  TraceId category_id = kNoTraceId;  ///< Intern ID of `category`.
  TraceId subject_id = kNoTraceId;   ///< Intern ID of `subject`.
};

/// Allocation-free view of one emission, delivered to ID listeners
/// (subscribe_ids). Carries the interned IDs instead of the name strings —
/// consumers that route on TraceIds (rv::MonitorRegistry) never pay a string
/// assignment; names are recoverable through Trace::category_name /
/// subject_name when a cold path (violation reporting) needs them. `detail`
/// views the emitter's buffer and is only valid during the callback.
struct TraceEvent {
  Time when = 0;
  TraceId category_id = kNoTraceId;
  TraceId subject_id = kNoTraceId;
  std::int64_t value = 0;
  std::string_view detail;
};

class Trace {
 public:
  using IdListener = std::function<void(const TraceEvent&)>;

  void enable_retention(bool on) { retain_ = on; }

  void emit(Time when, std::string_view category, std::string_view subject,
            std::int64_t value = 0, std::string_view detail = {}) {
    const TraceId cat = intern_category(category);
    const TraceId subj = subjects_.intern(subject);
    bump(rows_[cat], subj);
    // Listeners run before any record is materialized. They may emit (and
    // so grow rows_), hence the index loop that re-reads the row.
    if (!rows_[cat].listeners.empty()) {
      const TraceEvent ev{when, cat, subj, value, detail};
      for (std::size_t i = 0; i < rows_[cat].listeners.size(); ++i) {
        listeners_[rows_[cat].listeners[i]](ev);
      }
    }
    if (!retain_) {
      records_complete_ = false;
      return;
    }
    records_.push_back(TraceRecord{when, std::string(category),
                                   std::string(subject), value,
                                   std::string(detail), cat, subj});
  }

  /// Subscribe a listener to every emission.
  void subscribe_ids(IdListener listener) {
    const auto index = add_listener(std::move(listener));
    all_listeners_.push_back(index);
    for (Row& row : rows_) row.listeners.push_back(index);
  }

  /// Subscribe a listener to the emissions of one interned category; other
  /// categories never reach it. Throws std::out_of_range for an ID this
  /// Trace has not interned.
  void subscribe_ids(TraceId category, IdListener listener) {
    if (category >= rows_.size()) {
      throw std::out_of_range("Trace::subscribe_ids: unknown category");
    }
    rows_[category].listeners.push_back(add_listener(std::move(listener)));
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }

  // --- Interning ------------------------------------------------------------

  /// Intern a name ahead of its first emission (observers pre-register the
  /// IDs they will route on, e.g. rv::MonitorRegistry at attach() time).
  TraceId intern_category(std::string_view category) {
    const TraceId id = categories_.intern(category);
    if (id == rows_.size()) rows_.push_back(Row{.listeners = all_listeners_});
    return id;
  }
  TraceId intern_subject(std::string_view subject) {
    return subjects_.intern(subject);
  }

  /// ID of a name if it has been seen/interned, kNoTraceId otherwise.
  [[nodiscard]] TraceId category_id(std::string_view category) const {
    return categories_.find(category);
  }
  [[nodiscard]] TraceId subject_id(std::string_view subject) const {
    return subjects_.find(subject);
  }

  /// Reverse lookup; empty view for unknown IDs.
  [[nodiscard]] std::string_view category_name(TraceId id) const {
    return categories_.name(id);
  }
  [[nodiscard]] std::string_view subject_name(TraceId id) const {
    return subjects_.name(id);
  }

  // --- Counting -------------------------------------------------------------

  /// Emissions in `category` since construction / the last clear(),
  /// independent of retention.
  [[nodiscard]] std::size_t count(std::string_view category) const {
    return count(categories_.find(category));
  }

  [[nodiscard]] std::size_t count(std::string_view category,
                                  std::string_view subject) const {
    return count(categories_.find(category), subjects_.find(subject));
  }

  [[nodiscard]] std::size_t count(TraceId category) const {
    return category < rows_.size() ? rows_[category].count : 0;
  }

  [[nodiscard]] std::size_t count(TraceId category, TraceId subject) const {
    if (category >= rows_.size()) return 0;
    const std::vector<std::size_t>& by_subject = rows_[category].by_subject;
    return subject < by_subject.size() ? by_subject[subject] : 0;
  }

  /// Every (subject, count) pair recorded under `category`, in subject
  /// order. Incremental consumers (isolation::ContainmentMonitor, rv
  /// monitors) classify from this index instead of re-scanning records.
  /// O(subjects-in-category): each row lists the subjects it has counted.
  [[nodiscard]] std::vector<std::pair<std::string, std::size_t>>
  subject_counts(std::string_view category) const {
    std::vector<std::pair<std::string, std::size_t>> out;
    for (const auto& [subj, n] : subject_counts_by_id(category_id(category))) {
      out.emplace_back(std::string(subjects_.name(subj)), n);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// ID-keyed variant of subject_counts() (unordered): every
  /// (subject_id, count) pair recorded under the category ID, in
  /// O(subjects-in-category).
  [[nodiscard]] std::vector<std::pair<TraceId, std::size_t>>
  subject_counts_by_id(TraceId category) const {
    std::vector<std::pair<TraceId, std::size_t>> out;
    if (category >= rows_.size()) return out;
    const Row& row = rows_[category];
    out.reserve(row.subjects.size());
    for (const TraceId subj : row.subjects) {
      out.emplace_back(subj, row.by_subject[subj]);
    }
    return out;
  }

  /// Drops retained records AND resets the count indexes (counts always
  /// describe the same window as records() when retention is on). Intern
  /// IDs survive: a (category, subject) keeps its IDs across clear(), so
  /// observers holding resolved IDs stay valid.
  void clear() {
    // Guard against silent index drift: whenever the retained records are
    // a complete history of the window, the ID-indexed counts must agree
    // with a string-keyed recount of them.
    assert(!records_complete_ || counts_match_records());
    records_.clear();
    for (Row& row : rows_) {
      row.count = 0;
      for (const TraceId subj : row.subjects) row.by_subject[subj] = 0;
      row.subjects.clear();
    }
    records_complete_ = true;
  }

  /// Consistency test hook: recount the retained records by their strings
  /// and compare against the ID-indexed counts. Only meaningful when
  /// retention has been on since construction / the last clear() (otherwise
  /// counts legitimately exceed the recount); callers can check
  /// records_complete() first. Used by the debug assertion in clear() and
  /// by the index-drift regression tests.
  [[nodiscard]] bool counts_match_records() const {
    std::vector<std::vector<std::size_t>> recount(rows_.size());
    for (const auto& rec : records_) {
      const TraceId cat = categories_.find(rec.category);
      const TraceId subj = subjects_.find(rec.subject);
      if (cat == kNoTraceId || subj == kNoTraceId) return false;
      if (cat != rec.category_id || subj != rec.subject_id) return false;
      if (cat >= recount.size()) return false;
      if (subj >= recount[cat].size()) recount[cat].resize(subj + 1, 0);
      ++recount[cat][subj];
    }
    for (TraceId cat = 0; cat < rows_.size(); ++cat) {
      const Row& row = rows_[cat];
      std::size_t total = 0;
      std::size_t counted_subjects = 0;
      const std::size_t width =
          std::max(row.by_subject.size(), recount[cat].size());
      for (TraceId subj = 0; subj < width; ++subj) {
        const std::size_t n = count(cat, subj);
        if (n != (subj < recount[cat].size() ? recount[cat][subj] : 0)) {
          return false;
        }
        total += n;
        counted_subjects += n != 0 ? 1 : 0;
      }
      if (total != row.count) return false;
      // The row's subject list names exactly its counted subjects, once.
      if (row.subjects.size() != counted_subjects) return false;
      for (const TraceId subj : row.subjects) {
        if (subj >= row.by_subject.size() || row.by_subject[subj] == 0) {
          return false;
        }
      }
    }
    return true;
  }

  /// True while the retained records cover every emission since
  /// construction / the last clear() (retention never off during an emit).
  [[nodiscard]] bool records_complete() const { return records_complete_; }

 private:
  /// String -> dense ID table with stable IDs and O(1) transparent lookup
  /// (no std::string built for a hit). Name storage lives in the map nodes,
  /// which are pointer-stable across rehash and move.
  class Interner {
   public:
    TraceId intern(std::string_view name) {
      auto it = ids_.find(name);
      if (it != ids_.end()) return it->second;
      const TraceId id = static_cast<TraceId>(names_.size());
      it = ids_.emplace(std::string(name), id).first;
      names_.push_back(it->first);
      return id;
    }
    [[nodiscard]] TraceId find(std::string_view name) const {
      auto it = ids_.find(name);
      return it == ids_.end() ? kNoTraceId : it->second;
    }
    [[nodiscard]] std::string_view name(TraceId id) const {
      return id < names_.size() ? names_[id] : std::string_view{};
    }

   private:
    struct Hash {
      using is_transparent = void;
      std::size_t operator()(std::string_view s) const noexcept {
        return std::hash<std::string_view>{}(s);
      }
    };
    std::unordered_map<std::string, TraceId, Hash, std::equal_to<>> ids_;
    std::vector<std::string_view> names_;  ///< Views into ids_ keys.
  };

  /// Everything one category ID owns, indexed by that ID in rows_.
  struct Row {
    std::size_t count = 0;               ///< Emissions in the category.
    std::vector<std::size_t> by_subject; ///< Emissions per subject ID.
    /// Subjects with a nonzero count, in first-bump order: the iteration
    /// set of subject_counts().
    std::vector<TraceId> subjects;
    /// Indexes into listeners_ (all-category ones included), ascending, so
    /// they run in subscription order.
    std::vector<std::uint32_t> listeners;
  };

  static void bump(Row& row, TraceId subject) {
    ++row.count;
    if (subject >= row.by_subject.size()) {
      row.by_subject.resize(subject + 1, 0);
    }
    if (row.by_subject[subject]++ == 0) row.subjects.push_back(subject);
  }

  std::uint32_t add_listener(IdListener listener) {
    listeners_.push_back(std::move(listener));
    return static_cast<std::uint32_t>(listeners_.size() - 1);
  }

  std::vector<IdListener> listeners_;  ///< In subscription order.
  std::vector<std::uint32_t> all_listeners_;  ///< The all-category ones.
  std::vector<Row> rows_;                      ///< Indexed by category ID.
  std::vector<TraceRecord> records_;
  Interner categories_;
  Interner subjects_;
  bool retain_ = true;
  bool records_complete_ = true;
};

}  // namespace orte::sim
