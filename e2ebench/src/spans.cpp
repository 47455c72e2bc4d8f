#include "spans.hpp"

#include <cstdio>
#include <sstream>

namespace e2ebench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

std::size_t SpanRecorder::add(Span span) {
  const std::lock_guard<std::mutex> lock(mu_);
  span.id = spans_.size();
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

std::size_t SpanRecorder::open(std::string name, std::size_t parent,
                               int tid) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.tid = tid;
  s.start_ns = now_ns();
  return add(std::move(s));
}

void SpanRecorder::close(std::size_t id,
                         std::vector<std::pair<std::string, double>> args) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = end;
  spans_[id].args = std::move(args);
}

std::vector<double> SpanRecorder::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

std::string SpanRecorder::to_chrome_json() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ',' << buf
       << ",\"args\":{\"id\":" << s.id;
    if (s.parent != Span::kNoParent) os << ",\"parent\":" << s.parent;
    for (const auto& [k, v] : s.args) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      os << ",\"" << k << "\":" << buf;
    }
    os << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace e2ebench
