// Fixture: seeded-bad input for the unordered-fold rule. Never compiled.
// The bug class: a parallel aggregation path merging per-worker partial
// sums in hash order. Floating-point addition is not associative, so an
// unspecified iteration order makes the fold differ run to run.
#include <cstdint>
#include <unordered_map>
#include <vector>

double total_volume(const std::unordered_map<std::uint32_t, double>& m) {
  std::unordered_map<std::uint32_t, double> per_bs = m;
  double sum = 0.0;
  for (const auto& [bs, volume] : per_bs) {  // line 12: order-sensitive fold
    sum += volume;
  }
  return sum;
}

std::vector<double> collect(
    const std::unordered_map<std::uint32_t, double>& m) {
  std::unordered_map<std::uint32_t, double> series = m;
  std::vector<double> out;
  for (const auto& kv : series) {  // line 22: push_back in unordered order
    out.push_back(kv.second);
  }
  return out;
}

// Reading without accumulating is fine (a pure lookup loop):
bool contains_zero(const std::unordered_map<std::uint32_t, double>& m) {
  std::unordered_map<std::uint32_t, double> probe = m;
  for (const auto& kv : probe) {
    if (kv.second == 0.0) return true;
  }
  return false;
}
