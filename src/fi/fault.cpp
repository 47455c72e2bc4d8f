#include "fi/fault.hpp"

namespace orte::fi {

std::string_view to_string(FaultClass cls) {
  switch (cls) {
    case FaultClass::kBus:
      return "bus";
    case FaultClass::kRteValue:
      return "rte_value";
    case FaultClass::kTiming:
      return "timing";
    case FaultClass::kClock:
      return "clock";
  }
  return "unknown";
}

std::string Fault::label() const {
  std::string out{to_string(kind)};
  if (!target.empty()) {
    out.push_back(':');
    out += target;
  }
  return out;
}

}  // namespace orte::fi
