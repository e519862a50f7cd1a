//===- support/Statistics.cpp --------------------------------------------===//

#include "support/Statistics.h"

#include <algorithm>
#include <cmath>

using namespace balign;

double balign::mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double balign::stddev(const std::vector<double> &Values) {
  if (Values.size() < 2)
    return 0.0;
  double M = mean(Values);
  double SquareSum = 0.0;
  for (double V : Values)
    SquareSum += (V - M) * (V - M);
  return std::sqrt(SquareSum / static_cast<double>(Values.size()));
}

double balign::median(std::vector<double> Values) {
  return percentile(std::move(Values), 50.0);
}

double balign::percentile(std::vector<double> Values, double Pct) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  if (Values.size() == 1)
    return Values.front();
  double Rank = (Pct / 100.0) * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}
