// Span recorder for the traced run: one span per call into a layer's
// public entry point, with the layer counters read at the span boundaries
// attached as arguments. Spans stay in memory and are written once, at
// exit, as Chrome trace_event JSON (the format rv::to_chrome_trace emits),
// so chrome://tracing or ui.perfetto.dev opens the file directly.
//
// Untraced operations pass a null recorder: Scope then records nothing and
// the timed path is the same calls without the bookkeeping.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a process-wide epoch (steady clock).
[[nodiscard]] std::int64_t now_ns();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t id = 0;
  std::size_t parent = kNoParent;  ///< Id of the enclosing span.
  int tid = 0;                     ///< Recording thread (0 = main).
  std::vector<std::pair<std::string, double>> args;  ///< Counters.

  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

class SpanRecorder {
 public:
  /// Record a finished span; returns its id. Thread-safe.
  std::size_t add(Span span);
  /// Reserve an id for a span whose end is not known yet (parents are
  /// opened before their children and closed after them).
  std::size_t open(std::string name, std::size_t parent, int tid = 0);
  void close(std::size_t id,
             std::vector<std::pair<std::string, double>> args = {});

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ms) of every span with this name, in record order.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  /// Chrome trace_event JSON: complete events ("ph":"X"), one lane per
  /// recording thread, span id/parent and counters under "args".
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  std::mutex mu_;  ///< Guards spans_ (campaign workers record too).
  std::vector<Span> spans_;
};

/// RAII span around one call; inert when the recorder is null.
class Scope {
 public:
  Scope(SpanRecorder* rec, std::string_view name,
        std::size_t parent = Span::kNoParent)
      : rec_(rec),
        id_(rec ? rec->open(std::string(name), parent) : Span::kNoParent) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (rec_ != nullptr) rec_->close(id_, std::move(args_));
  }
  /// Attach a counter read at this span's boundary.
  void arg(std::string_view key, double value) {
    if (rec_ != nullptr) args_.emplace_back(std::string(key), value);
  }
  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::size_t id_;
  std::vector<std::pair<std::string, double>> args_;
};

}  // namespace e2ebench
