// Order statistics for the benchmark's latency and span reports.

#ifndef QREG_PERFBENCH_STATS_H_
#define QREG_PERFBENCH_STATS_H_

#include <vector>

namespace qreg {
namespace perfbench {

/// \brief The p-quantile (p in [0, 1]) of `values`, interpolating linearly
/// between the two closest ranks: rank = p · (n − 1). 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// \brief Percentile(values, 0.5).
double Median(std::vector<double> values);

/// \brief Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

}  // namespace perfbench
}  // namespace qreg

#endif  // QREG_PERFBENCH_STATS_H_
