/**
 * @file
 * Unit tests for the util layer: RNG determinism and distribution
 * sanity, statistics containers, and the time conversions.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"
#include "util/stats.h"
#include "util/types.h"

namespace exist {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkGivesIndependentStreams)
{
    Rng parent(7);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    EXPECT_NE(c1.next(), c2.next());

    // Forking with the same tag from identical parents reproduces.
    Rng p1(9), p2(9);
    EXPECT_EQ(p1.fork(5).next(), p2.fork(5).next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(42);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(43);
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += rng.exponential(5.0);
    EXPECT_NEAR(sum / 20000, 5.0, 0.2);
}

TEST(Rng, BernoulliProbability)
{
    Rng rng(44);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, LognormalIsPositive)
{
    Rng rng(45);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GT(rng.lognormal(1.0, 0.5), 0.0);
}

TEST(Samples, PercentilesInterpolate)
{
    Samples s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(99), 99.01, 0.011);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Samples, EmptyIsSafe)
{
    Samples s;
    EXPECT_EQ(s.percentile(50), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(Cdf, FractionsAndQuantiles)
{
    Cdf cdf({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.5);
    EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

TEST(Types, TimeConversionsRoundTrip)
{
    EXPECT_EQ(secondsToCycles(1.0), kCyclesPerSecond);
    EXPECT_DOUBLE_EQ(cyclesToSeconds(kCyclesPerSecond), 1.0);
    EXPECT_EQ(usToCycles(1000.0), kCyclesPerMs);
    EXPECT_DOUBLE_EQ(cyclesToMs(kCyclesPerMs), 1.0);
}

}  // namespace
}  // namespace exist
