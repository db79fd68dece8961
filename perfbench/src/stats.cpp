#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t nearest_rank(double p, std::size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

bool percentile_supported(double p, std::size_t n) {
  return n > 0 && n - nearest_rank(p, n) >= kMinBeyond;
}

std::size_t samples_needed(double p) {
  std::size_t n = 1;
  while (!percentile_supported(p, n)) ++n;
  return n;
}

std::optional<double> percentile(std::vector<double> values, double p) {
  if (!percentile_supported(p, values.size())) return std::nullopt;
  const std::size_t k = nearest_rank(p, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
