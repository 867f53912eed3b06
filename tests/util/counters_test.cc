/** @file Unit tests for saturating and resetting counters. */

#include "confidence/one_level.h"
#include "util/saturating_counter.h"

#include <gtest/gtest.h>

namespace confsim {
namespace {

TEST(SaturatingCounterTest, SaturatesHigh)
{
    SaturatingCounter c(3, 2);
    EXPECT_EQ(c.increment(), 3u);
    EXPECT_EQ(c.increment(), 3u);
    EXPECT_TRUE(c.isMax());
}

TEST(SaturatingCounterTest, SaturatesLow)
{
    SaturatingCounter c(3, 1);
    EXPECT_EQ(c.decrement(), 0u);
    EXPECT_EQ(c.decrement(), 0u);
    EXPECT_TRUE(c.isMin());
}

TEST(SaturatingCounterTest, InitialValueClamped)
{
    SaturatingCounter c(3, 99);
    EXPECT_EQ(c.value(), 3u);
}

TEST(SaturatingCounterTest, TwoBitPredictionThreshold)
{
    // Standard 2-bit scheme: 0, 1 -> not taken; 2, 3 -> taken.
    SaturatingCounter c(3, 0);
    EXPECT_FALSE(c.predictsTaken());
    c.increment();
    EXPECT_FALSE(c.predictsTaken());
    c.increment();
    EXPECT_TRUE(c.predictsTaken());
    c.increment();
    EXPECT_TRUE(c.predictsTaken());
}

TEST(SaturatingCounterTest, WeaklyTakenIsTaken)
{
    // "Weakly taken" init (value 2 of 0..3) must predict taken, as the
    // paper initializes its predictor tables.
    SaturatingCounter c(3, 2);
    EXPECT_TRUE(c.predictsTaken());
}

TEST(SaturatingCounterTest, SetClamps)
{
    SaturatingCounter c(16, 0);
    c.set(20);
    EXPECT_EQ(c.value(), 16u);
    c.set(5);
    EXPECT_EQ(c.value(), 5u);
}

TEST(SaturatingCounterTest, ZeroToSixteenRange)
{
    // The paper's confidence counters count 0..16.
    SaturatingCounter c(16, 0);
    for (int i = 0; i < 16; ++i)
        c.increment();
    EXPECT_TRUE(c.isMax());
    EXPECT_EQ(c.value(), 16u);
}

/** One resetting-counter step (Section 5.1); @return the new value. */
std::uint32_t
record(std::uint32_t &counter, bool correct, std::uint32_t max = 16)
{
    trainCounter(CounterKind::Resetting, counter, max, correct);
    return counter;
}

TEST(ResettingCounterTest, IncrementsOnCorrect)
{
    std::uint32_t c = 0;
    EXPECT_EQ(record(c, true), 1u);
    EXPECT_EQ(record(c, true), 2u);
}

TEST(ResettingCounterTest, ResetsToZeroOnIncorrect)
{
    std::uint32_t c = 0;
    for (int i = 0; i < 10; ++i)
        record(c, true);
    EXPECT_EQ(c, 10u);
    EXPECT_EQ(record(c, false), 0u);
}

TEST(ResettingCounterTest, SaturatesAtMax)
{
    std::uint32_t c = 0;
    for (int i = 0; i < 40; ++i)
        record(c, true);
    EXPECT_EQ(c, 16u);
}

TEST(ResettingCounterTest, ValueCountsCorrectStreakExactly)
{
    // Value = min(correct predictions since last mispredict, max).
    std::uint32_t c = 16;
    record(c, false);
    for (int i = 1; i <= 5; ++i) {
        record(c, true);
        EXPECT_EQ(c, static_cast<std::uint32_t>(i));
    }
}

TEST(ResettingCounterTest, PaperSequenceMatchesCirSemantics)
{
    // 3 correct, 1 incorrect, 4 correct (the paper's CIR example
    // 00010000): a resetting counter ends at 4 — the position of the
    // most recent misprediction.
    std::uint32_t c = 0;
    record(c, true);
    record(c, true);
    record(c, true);
    record(c, false);
    for (int i = 0; i < 4; ++i)
        record(c, true);
    EXPECT_EQ(c, 4u);
}

} // namespace
} // namespace confsim
