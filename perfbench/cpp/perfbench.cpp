#include "perfbench.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>

#include "util/require.hpp"

namespace perfbench {

void WorkloadResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

EndToEnd Samples::summarize() const {
  // Per-item cost: the fastest of the run's repetitions of that item.
  std::vector<double> best = item_ms.front();
  for (const std::vector<double>& it : item_ms) {
    HINET_ENSURE(it.size() == best.size(),
                 "iterations must repeat the same items");
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], it[i]);
    }
  }
  double total_ms = 0;
  for (const double v : best) total_ms += v;
  EndToEnd e;
  e.setup_s = *std::min_element(setup_s.begin(), setup_s.end());
  e.items_per_s = static_cast<double>(best.size()) / (total_ms / 1000.0);
  e.item_ms_p50 = quantile(best, 0.5);
  e.item_ms_p90 = quantile(best, 0.9);
  e.bytes_per_node = median(bytes_per_node);
  return e;
}

double overhead_frac(const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms) {
  return *std::min_element(traced_ms.begin(), traced_ms.end()) /
             *std::min_element(untraced_ms.begin(), untraced_ms.end()) -
         1.0;
}

std::size_t current_rss_bytes() {
  std::ifstream f("/proc/self/statm");
  std::size_t pages_total = 0;
  std::size_t pages_resident = 0;
  if (!(f >> pages_total >> pages_resident)) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return pages_resident * static_cast<std::size_t>(page > 0 ? page : 4096);
}

}  // namespace perfbench
