#include "stats/association_tests.h"

#include <cmath>

#include "stats/distributions.h"

namespace logmine::stats {
namespace {

// o * ln(o / e), with the conventional 0 * ln(0) = 0.
double Term(int64_t o, double e) {
  if (o == 0) return 0.0;
  return static_cast<double>(o) * std::log(static_cast<double>(o) / e);
}

}  // namespace

double DunningLogLikelihood(const Contingency2x2& table) {
  if (table.n() == 0) return 0.0;
  const double g2 = 2.0 * (Term(table.o11, table.e11()) +
                           Term(table.o12, table.e12()) +
                           Term(table.o21, table.e21()) +
                           Term(table.o22, table.e22()));
  // Guard against tiny negative values from floating-point cancellation.
  return g2 < 0.0 ? 0.0 : g2;
}

double PearsonChiSquare(const Contingency2x2& table) {
  if (table.n() == 0) return 0.0;
  double x2 = 0.0;
  const double e11 = table.e11(), e12 = table.e12();
  const double e21 = table.e21(), e22 = table.e22();
  if (e11 > 0) x2 += (table.o11 - e11) * (table.o11 - e11) / e11;
  if (e12 > 0) x2 += (table.o12 - e12) * (table.o12 - e12) / e12;
  if (e21 > 0) x2 += (table.o21 - e21) * (table.o21 - e21) / e21;
  if (e22 > 0) x2 += (table.o22 - e22) * (table.o22 - e22) / e22;
  return x2;
}

double ChiSquarePValue(double score) { return ChiSquareSf(score, 1.0); }

bool IsSignificantAttraction(const Contingency2x2& table, double score,
                             double alpha) {
  return table.IsAttracted() && ChiSquarePValue(score) < alpha;
}

}  // namespace logmine::stats
