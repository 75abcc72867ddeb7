#include "common/trace.h"

#include <ostream>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"

namespace triad::trace {

TraceSpan::TraceSpan(const char* name)
    : name_(name), start_(Clock::now()), active_(true) {}

TraceSpan::~TraceSpan() {
  if (active_) Stop();
}

double TraceSpan::Stop() {
  const double duration =
      std::chrono::duration<double>(Clock::now() - start_).count();
  if (!active_) return duration;
  active_ = false;
  if (metrics::Enabled()) {
    metrics::Registry::Global().histogram(name_)->Observe(duration);
  }
  return duration;
}

void WriteObservabilityJson(
    std::ostream& os, const std::string& name, double wall_seconds,
    const std::vector<std::pair<std::string, double>>& extra) {
  os << "{\n";
  os << "  \"schema\": \"triad-observability-v3\",\n";
  os << "  \"name\": \"" << metrics::JsonEscape(name) << "\",\n";
  os << "  \"wall_seconds\": ";
  metrics::AppendJsonNumber(os, wall_seconds);
  os << ",\n";
  os << "  \"simd_tier\": \"" << simd::LevelName(simd::ActiveLevel())
     << "\",\n";
  os << "  \"threads\": " << DefaultPool()->num_threads() << ",\n";
  os << "  \"metrics_enabled\": " << (metrics::Enabled() ? "true" : "false")
     << ",\n";
  os << "  " << metrics::Registry::Global().ExportJsonMembers() << ",\n";
  os << "  \"extra\": {";
  bool first = true;
  for (const auto& [key, value] : extra) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << metrics::JsonEscape(key) << "\": ";
    metrics::AppendJsonNumber(os, value);
  }
  os << "}\n";
  os << "}\n";
}

}  // namespace triad::trace
