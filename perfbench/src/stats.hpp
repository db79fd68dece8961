// Order statistics for benchmark samples.
//
// Percentiles use the nearest-rank definition, and a percentile is only
// reported when at least kMinBeyond samples lie beyond it: p90 needs 100
// samples, p99 needs 1000.  Fewer samples than that would let one or two
// outliers decide the number.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among n samples.
std::size_t nearest_rank(double p, std::size_t n);

/// True when n samples support percentile p under the kMinBeyond rule.
bool percentile_supported(double p, std::size_t n);

/// Smallest sample count that supports percentile p.
std::size_t samples_needed(double p);

/// Nearest-rank percentile, or nullopt when the sample count does not
/// support it.  `values` need not be sorted.
std::optional<double> percentile(std::vector<double> values, double p);

/// Middle value (mean of the two middle values for an even count); 0 when
/// empty.
double median(std::vector<double> values);

}  // namespace perfbench
