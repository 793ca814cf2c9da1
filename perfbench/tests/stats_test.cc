// Tests of the benchmark's own statistics: exact percentiles and when they are supported,
// due-time latency under a stalled server, failure accounting, and the value checksum.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "perfbench/stats.h"

namespace perfbench {
namespace {

TEST(ExactQuantile, NearestRankOverRawSamples) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 100; i >= 1; --i) {
    v.push_back(i);  // 1..100, unsorted
  }
  EXPECT_EQ(ExactQuantile(v, 0.5), 50u);
  EXPECT_EQ(ExactQuantile(v, 0.99), 99u);
  EXPECT_EQ(ExactQuantile(v, 1.0), 100u);
  EXPECT_EQ(ExactQuantile(v, 0.001), 1u);
  std::vector<std::uint64_t> empty;
  EXPECT_EQ(ExactQuantile(empty, 0.5), 0u);
}

TEST(ExactQuantile, NotABucketBound) {
  // 1000 samples of 1000 and one of 1001 at the top: a 12.5%-wide log bucket would report
  // its upper bound (well above 1001); the exact quantile reports a sample.
  std::vector<std::uint64_t> v(999, 1000);
  v.push_back(1001);
  EXPECT_EQ(ExactQuantile(v, 0.999), 1000u);
  EXPECT_EQ(ExactQuantile(v, 1.0), 1001u);
}

TEST(Summarize, PercentileNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(QuantileSupported(999, 0.99));
  EXPECT_TRUE(QuantileSupported(1000, 0.99));
  EXPECT_FALSE(QuantileSupported(9999, 0.999));
  EXPECT_TRUE(QuantileSupported(10000, 0.999));

  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1; i <= 2000; ++i) {
    v.push_back(i * 10);
  }
  LatencySummary s = Summarize(v);
  EXPECT_EQ(s.samples, 2000u);
  EXPECT_EQ(s.p50, 10000u);
  EXPECT_EQ(s.p99, 19800u);
  EXPECT_EQ(s.p999, 19980u);
  EXPECT_TRUE(s.p99_supported);
  EXPECT_FALSE(s.p999_supported);
}

TEST(MedianOfWindows, OneStalledWindowDoesNotMoveTheMedian) {
  // Ten windows of 100 samples each; window 3 holds a host stall.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> samples;
  for (std::uint64_t w = 0; w < 10; ++w) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      std::uint64_t latency = w == 3 ? 5'000'000 : 10'000 + i;
      samples.emplace_back(1000 + w * 1'000'000 + i * 10'000, latency);
    }
  }
  // Every calm window's p99 is 10'098 (the 99th of 10'000..10'099).
  EXPECT_EQ(MedianOfWindows(samples, 1000, 1'000'000, 0.99, 50), 10'098u);
  EXPECT_EQ(MedianOfWindows(samples, 1000, 1'000'000, 0.5, 50), 10'049u);
  // The whole-run p99 is the stall.
  std::vector<std::uint64_t> all;
  for (const auto& s : samples) {
    all.push_back(s.second);
  }
  EXPECT_EQ(ExactQuantile(all, 0.99), 5'000'000u);
  // Windows short of min_samples are ignored.
  EXPECT_EQ(MedianOfWindows(samples, 1000, 1'000'000, 0.99, 101), 0u);
}

// A server that stalls for 1 ms: arrivals due during the stall wait in the client queue,
// and their latency includes that wait because it runs from the due time.
TEST(OpenLoopLane, LatencyRunsFromDueTimeThroughAStall) {
  OpenLoopLane lane(/*pipeline=*/1);
  for (std::uint64_t t = 0; t < 10; ++t) {
    lane.AddArrival(t * 100'000);  // one arrival every 100 us
  }
  const std::uint64_t service = 10'000;  // 10 us when the server runs
  const std::uint64_t stall_end = 1'000'000;
  std::uint64_t now = 0;
  std::vector<std::uint64_t> latency, lateness;
  while (!lane.done()) {
    long next = lane.NextSendable(now);
    if (next < 0) {
      now = std::max(now, lane.NextDue());
      continue;
    }
    lateness.push_back(lane.MarkSent(now));
    // The first request is answered only when the stall ends.
    now = next == 0 ? stall_end : now + service;
    latency.push_back(lane.Complete(static_cast<std::size_t>(next), now));
  }
  ASSERT_EQ(latency.size(), 10u);
  EXPECT_EQ(latency[0], stall_end);
  // Arrival 1 was due at 100 us, could only be sent at 1 ms, answered 10 us later.
  EXPECT_EQ(lateness[1], stall_end - 100'000);
  EXPECT_EQ(latency[1], stall_end + service - 100'000);
  // Every arrival due during the stall is charged for it, not just the first.
  for (std::size_t i = 1; i < 10; ++i) {
    EXPECT_GT(latency[i], service) << i;
  }
}

TEST(OpenLoopLane, PipelineCapQueuesInsteadOfDropping) {
  OpenLoopLane lane(/*pipeline=*/2);
  for (int i = 0; i < 5; ++i) {
    lane.AddArrival(0);
  }
  EXPECT_EQ(lane.NextSendable(0), 0);
  lane.MarkSent(0);
  EXPECT_EQ(lane.NextSendable(0), 1);
  lane.MarkSent(0);
  EXPECT_EQ(lane.NextSendable(0), -1);  // full: arrival 2 waits
  lane.Complete(0, 50);
  EXPECT_EQ(lane.NextSendable(50), 2);
  EXPECT_EQ(lane.MarkSent(50), 50u);  // it ran 50 ns late
  EXPECT_EQ(lane.sent(), 3u);
  EXPECT_FALSE(lane.done());
}

TEST(FailureTally, CountsEveryCause) {
  FailureTally t;
  t.Record(Outcome::kOk);
  t.Record(Outcome::kOk);
  t.Record(Outcome::kRefused);
  t.Record(Outcome::kUnsent);
  t.Record(Outcome::kTimeout);
  t.Record(Outcome::kError);
  t.Record(Outcome::kMiss);
  t.Record(Outcome::kBadValue);
  EXPECT_EQ(t.attempted, 8u);
  EXPECT_EQ(t.failed(), 6u);
  EXPECT_EQ(t.correct(), 2u);
  EXPECT_EQ(t.refused + t.unsent + t.timeout + t.error + t.miss + t.bad_value, 6u);
  EXPECT_DOUBLE_EQ(t.FailedShare(), 7.0 / 10.0);

  FailureTally clean;
  for (int i = 0; i < 998; ++i) {
    clean.Record(Outcome::kOk);
  }
  EXPECT_EQ(clean.failed(), 0u);
  EXPECT_DOUBLE_EQ(clean.FailedShare(), 1.0 / 1000.0);  // never 0

  FailureTally merged;
  merged.Merge(t);
  merged.Merge(clean);
  EXPECT_EQ(merged.attempted, 1006u);
  EXPECT_EQ(merged.failed(), 6u);
}

TEST(ValueFormat, RoundTripsAndEmbedsTheKey) {
  std::string pattern(16 * 1024, '\0');
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<char>(i * 131 + 7);
  }
  std::uint32_t hash = KeyHash32("k42:abcdefghijklmnopq");
  std::uint32_t other = KeyHash32("k43:abcdefghijklmnopq");
  ASSERT_NE(hash, other);
  for (std::size_t n : {1u, 5u, 11u, 12u, 13u, 100u, 1024u, 4096u, 16384u}) {
    std::string v(n, '\0');
    FillValue(v.data(), n, hash, 7, pattern.data());
    EXPECT_TRUE(VerifyValue(v.data(), n, n, hash)) << n;
    EXPECT_FALSE(VerifyValue(v.data(), n, n, other)) << n;  // another key's value
    EXPECT_FALSE(VerifyValue(v.data(), n, n + 1, hash)) << n;  // wrong length
  }
}

TEST(ValueFormat, ChecksumCatchesAnyFlippedByte) {
  std::string pattern(16 * 1024, 'p');
  std::uint32_t hash = KeyHash32("some-key-of-twenty-bytes");
  const std::size_t n = 4099;
  std::string v(n, '\0');
  FillValue(v.data(), n, hash, 3, pattern.data());
  for (std::size_t i = 0; i < n; i += 97) {
    std::string bad = v;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    EXPECT_FALSE(VerifyValue(bad.data(), n, n, hash)) << "byte " << i;
  }
  // A different generation of the same key is a valid value.
  std::string newer(n, '\0');
  FillValue(newer.data(), n, hash, 4, pattern.data());
  EXPECT_NE(newer, v);
  EXPECT_TRUE(VerifyValue(newer.data(), n, n, hash));
}

}  // namespace
}  // namespace perfbench
