#ifndef LOGMINE_STATS_ASSOCIATION_TESTS_H_
#define LOGMINE_STATS_ASSOCIATION_TESTS_H_

#include "stats/contingency.h"

namespace logmine::stats {

/// Dunning's log-likelihood ratio statistic
///   G^2 = 2 * sum_ij o_ij * ln(o_ij / e_ij)
/// (terms with o_ij = 0 contribute 0). Asymptotically chi-square with
/// 1 degree of freedom, with far better behaviour than Pearson's X^2 on
/// the heavily skewed tables produced by log bigrams (Dunning 1993) —
/// the test the paper adopts for L2 via Evert's UCS toolkit.
double DunningLogLikelihood(const Contingency2x2& table);

/// Pearson's X^2 = sum_ij (o_ij - e_ij)^2 / e_ij, provided as the
/// classical baseline the paper compares against.
double PearsonChiSquare(const Contingency2x2& table);

/// p-value of an association score that is asymptotically chi-square with
/// one degree of freedom (applies to both tests above).
double ChiSquarePValue(double score);

/// One-sided decision used by the L2 miner: the table shows *attraction*
/// (o11 > e11) and the score's p-value is below `alpha`.
bool IsSignificantAttraction(const Contingency2x2& table, double score,
                             double alpha);

}  // namespace logmine::stats

#endif  // LOGMINE_STATS_ASSOCIATION_TESTS_H_
