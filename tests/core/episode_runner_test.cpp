#include "core/episode_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace mobirescue::core {
namespace {

TEST(EpisodeRunnerTest, JobsDefaultsToHardwareConcurrency) {
  EpisodeRunner runner(0);
  EXPECT_EQ(runner.jobs(), EpisodeRunner::HardwareJobs());
  EXPECT_GE(EpisodeRunner::HardwareJobs(), 1);
  EpisodeRunner inline_runner(1);
  EXPECT_EQ(inline_runner.jobs(), 1);
}

TEST(EpisodeRunnerTest, DeriveSeedIsDeterministicAndWellSeparated) {
  EXPECT_EQ(EpisodeRunner::DeriveSeed(42, 7), EpisodeRunner::DeriveSeed(42, 7));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base = 0; base < 4; ++base) {
    for (std::uint64_t index = 0; index < 64; ++index) {
      seeds.insert(EpisodeRunner::DeriveSeed(base, index));
    }
  }
  EXPECT_EQ(seeds.size(), 4u * 64u);  // no collisions among nearby keys
}

TEST(EpisodeRunnerTest, DeriveSeedKeepsItsRecordedValues) {
  // DeriveSeed(base, i) is splitmix64 of base + golden * i; these values
  // were recorded before it was rewritten onto util::SplitMix64, and every
  // seeded experiment depends on them.
  EXPECT_EQ(EpisodeRunner::DeriveSeed(0, 0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(EpisodeRunner::DeriveSeed(0, 1), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(EpisodeRunner::DeriveSeed(1, 7), 0x85E7BB0F12278575ULL);
  EXPECT_EQ(EpisodeRunner::DeriveSeed(42, 1000), 0x5566DBE893F1B4AEULL);
  EXPECT_EQ(EpisodeRunner::DeriveSeed(~std::uint64_t{0}, 7),
            0x405DA438A39E8064ULL);
  for (std::uint64_t base : {0ULL, 1ULL, 42ULL}) {
    for (std::uint64_t i : {0ULL, 3ULL, 1000ULL}) {
      EXPECT_EQ(EpisodeRunner::DeriveSeed(base, i),
                util::SplitMix64(base + 0x9E3779B97F4A7C15ULL * i));
    }
  }
}

TEST(EpisodeRunnerTest, MapPreservesIndexOrder) {
  for (int jobs : {1, 4}) {
    EpisodeRunner runner(jobs);
    const auto out =
        runner.Map(100, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i * i));
    }
  }
}

TEST(EpisodeRunnerTest, ParallelMapMatchesSerial) {
  EpisodeRunner serial(1);
  EpisodeRunner parallel(4);
  auto episode = [](std::size_t i) {
    // A toy "episode": accumulate a value that depends only on the index.
    double x = static_cast<double>(i) + 1.0;
    for (int step = 0; step < 1000; ++step) x = x * 1.000001 + 0.5;
    return x;
  };
  EXPECT_EQ(serial.Map(64, episode), parallel.Map(64, episode));
}

TEST(EpisodeRunnerTest, MapSeededStreamsDependOnlyOnIndex) {
  auto draw = [](std::size_t, util::Rng& rng) { return rng.Uniform(); };
  EpisodeRunner serial(1);
  EpisodeRunner parallel(4);
  const auto a = serial.MapSeeded(32, 123, draw);
  const auto b = parallel.MapSeeded(32, 123, draw);
  EXPECT_EQ(a, b);  // bit-identical regardless of scheduling

  const auto other_base = serial.MapSeeded(32, 124, draw);
  EXPECT_NE(a, other_base);  // different base seed, different streams
  std::set<double> distinct(a.begin(), a.end());
  EXPECT_EQ(distinct.size(), a.size());  // per-episode streams differ
}

TEST(EpisodeRunnerTest, RunsEveryIndexExactlyOnce) {
  EpisodeRunner runner(4);
  std::vector<std::atomic<int>> counts(200);
  runner.Map(200, [&](std::size_t i) {
    counts[i].fetch_add(1);
    return 0;
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(EpisodeRunnerTest, FirstExceptionPropagatesAfterBatch) {
  for (int jobs : {1, 4}) {
    EpisodeRunner runner(jobs);
    std::atomic<int> completed{0};
    EXPECT_THROW(runner.Map(16,
                            [&](std::size_t i) {
                              if (i == 5) throw std::runtime_error("episode 5");
                              completed.fetch_add(1);
                              return 0;
                            }),
                 std::runtime_error);
    EXPECT_EQ(completed.load(), 15);  // the other episodes still ran
  }
}

TEST(EpisodeRunnerTest, RunnerIsReusableAcrossBatches) {
  EpisodeRunner runner(3);
  for (int round = 0; round < 5; ++round) {
    const auto out = runner.Map(
        10, [round](std::size_t i) { return round * 100 + static_cast<int>(i); });
    EXPECT_EQ(out.front(), round * 100);
    EXPECT_EQ(out.back(), round * 100 + 9);
  }
}

}  // namespace
}  // namespace mobirescue::core
