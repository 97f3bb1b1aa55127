// Statistical machinery for the differential-correctness oracle.
//
// The oracle compares sampler implementations that are only *statistically*
// equivalent (different execution orders, alias vs. inverse-CDF paths), so
// it needs proper hypothesis tests, not ad-hoc thresholds: chi-square
// goodness-of-fit against analytic probabilities, chi-square homogeneity
// between two empirical count vectors, and a two-sample Kolmogorov-Smirnov
// test. All tests return an actual p-value
// (via the regularized incomplete gamma function / the Kolmogorov
// distribution) so callers can pick their significance level.

#ifndef GSAMPLER_ORACLE_STATS_H_
#define GSAMPLER_ORACLE_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace gs::oracle {

// Regularized upper incomplete gamma Q(a, x) = Γ(a, x) / Γ(a), a > 0,
// x >= 0. Series expansion below the a+1 crossover, Lentz continued
// fraction above it.
double RegularizedGammaQ(double a, double x);

// Upper-tail p-value of a chi-square statistic with `dof` degrees of
// freedom: P(X >= statistic) = Q(dof/2, statistic/2).
double ChiSquarePValue(double statistic, int dof);

struct TestResult {
  double statistic = 0.0;
  int dof = 0;
  double p_value = 1.0;
};

// Goodness of fit of observed category counts against analytic
// probabilities (normalized internally). Categories are pooled greedily
// until every pooled cell has expected count >= `min_expected`, keeping the
// chi-square approximation honest for sparse tails. Returns p = 1 when
// fewer than two pooled cells remain.
TestResult ChiSquareGoodnessOfFit(std::span<const int64_t> observed,
                                  std::span<const double> probs,
                                  double min_expected = 5.0);

// Two-sample homogeneity: tests whether count vectors `a` and `b` (same
// category space) were drawn from one distribution. Cells are pooled like
// the goodness-of-fit test, on the combined expected counts.
TestResult ChiSquareHomogeneity(std::span<const int64_t> a, std::span<const int64_t> b,
                                double min_expected = 5.0);

// Two-sample Kolmogorov-Smirnov with the asymptotic Kolmogorov-distribution
// p-value. Sorts copies of the inputs. On discrete data the test is
// conservative (true p is at least the reported one), which is the safe
// direction for an equivalence oracle.
TestResult KolmogorovSmirnov(std::vector<double> a, std::vector<double> b);

}  // namespace gs::oracle

#endif  // GSAMPLER_ORACLE_STATS_H_
