//===- support/Statistics.h - Small numeric summaries -------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Mean / standard-deviation / median / percentile helpers used by the
/// benchmark harnesses when aggregating per-benchmark results into the
/// summary rows the paper reports (e.g. "greedy removes a mean of 33% of
/// the control penalty").
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SUPPORT_STATISTICS_H
#define BALIGN_SUPPORT_STATISTICS_H

#include <cstddef>
#include <vector>

namespace balign {

/// Arithmetic mean; returns 0 for an empty sample.
double mean(const std::vector<double> &Values);

/// Population standard deviation; returns 0 for fewer than two samples.
double stddev(const std::vector<double> &Values);

/// Median (by sorting a copy); returns 0 for an empty sample.
double median(std::vector<double> Values);

/// Exclusive percentile in [0, 100] using linear interpolation between
/// order statistics; returns 0 for an empty sample.
double percentile(std::vector<double> Values, double Pct);

} // namespace balign

#endif // BALIGN_SUPPORT_STATISTICS_H
