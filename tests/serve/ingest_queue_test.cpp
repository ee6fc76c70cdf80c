#include "serve/ingest_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"

namespace mobirescue::serve {
namespace {

mobility::GpsRecord Rec(mobility::PersonId person, double t) {
  mobility::GpsRecord r;
  r.person = person;
  r.t = t;
  return r;
}

TEST(ShardedIngestQueueTest, ShardOfIsDeterministicAndInRange) {
  for (mobility::PersonId p = 0; p < 1000; ++p) {
    const std::size_t s = ShardedIngestQueue::ShardOf(p, 8);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, ShardedIngestQueue::ShardOf(p, 8));
  }
}

TEST(ShardedIngestQueueTest, ShardOfKeepsItsRecordedValues) {
  // Recorded before ShardOf was rewritten onto util::SplitMix64: the
  // person-to-shard map must not move.
  EXPECT_EQ(ShardedIngestQueue::ShardOf(0, 7), 2u);
  EXPECT_EQ(ShardedIngestQueue::ShardOf(0, 8), 7u);
  EXPECT_EQ(ShardedIngestQueue::ShardOf(0, 16), 15u);
  EXPECT_EQ(ShardedIngestQueue::ShardOf(2, 8), 6u);
  EXPECT_EQ(ShardedIngestQueue::ShardOf(12345, 7), 5u);
  EXPECT_EQ(ShardedIngestQueue::ShardOf(-1, 7), 3u);
  EXPECT_EQ(ShardedIngestQueue::ShardOf(2147483647, 16), 7u);
}

TEST(ShardedIngestQueueTest, ShardOfSpreadsConsecutiveIds) {
  // The mix must not map a contiguous id range onto one shard.
  std::vector<int> per_shard(8, 0);
  for (mobility::PersonId p = 0; p < 800; ++p) {
    ++per_shard[ShardedIngestQueue::ShardOf(p, 8)];
  }
  for (int n : per_shard) EXPECT_GT(n, 0);
}

TEST(ShardedIngestQueueTest, RejectsBadConfig) {
  IngestQueueConfig no_shards;
  no_shards.num_shards = 0;
  EXPECT_THROW(ShardedIngestQueue{no_shards}, std::invalid_argument);
  IngestQueueConfig no_capacity;
  no_capacity.shard_capacity = 0;
  EXPECT_THROW(ShardedIngestQueue{no_capacity}, std::invalid_argument);
}

TEST(ShardedIngestQueueTest, DrainPreservesPerPersonFifo) {
  ShardedIngestQueue queue;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(queue.Push(Rec(7, 10.0 * i)));
    EXPECT_TRUE(queue.Push(Rec(12, 10.0 * i + 1.0)));
  }
  std::vector<mobility::GpsRecord> out;
  EXPECT_EQ(queue.DrainInto(out), 100u);

  std::unordered_map<mobility::PersonId, double> last_t;
  for (const mobility::GpsRecord& r : out) {
    const auto it = last_t.find(r.person);
    if (it != last_t.end()) {
      EXPECT_GT(r.t, it->second);
    }
    last_t[r.person] = r.t;
  }
  EXPECT_EQ(last_t.size(), 2u);
}

TEST(ShardedIngestQueueTest, DropNewestRejectsWhenFull) {
  IngestQueueConfig config;
  config.num_shards = 1;
  config.shard_capacity = 3;
  config.drop_policy = DropPolicy::kDropNewest;
  ShardedIngestQueue queue(config);

  EXPECT_TRUE(queue.Push(Rec(1, 0.0)));
  EXPECT_TRUE(queue.Push(Rec(1, 1.0)));
  EXPECT_TRUE(queue.Push(Rec(1, 2.0)));
  EXPECT_FALSE(queue.Push(Rec(1, 3.0)));  // full: newest rejected

  std::vector<mobility::GpsRecord> out;
  queue.DrainInto(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.back().t, 2.0);

  const IngestCounters c = queue.counters();
  EXPECT_EQ(c.accepted, 3u);
  EXPECT_EQ(c.dropped, 1u);
  EXPECT_EQ(c.drained, 3u);
}

TEST(ShardedIngestQueueTest, DropOldestEvictsHead) {
  IngestQueueConfig config;
  config.num_shards = 1;
  config.shard_capacity = 3;
  config.drop_policy = DropPolicy::kDropOldest;
  ShardedIngestQueue queue(config);

  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.Push(Rec(1, i)));

  std::vector<mobility::GpsRecord> out;
  queue.DrainInto(out);
  ASSERT_EQ(out.size(), 3u);
  // The two oldest records (t=0, t=1) were evicted.
  EXPECT_EQ(out[0].t, 2.0);
  EXPECT_EQ(out[1].t, 3.0);
  EXPECT_EQ(out[2].t, 4.0);

  const IngestCounters c = queue.counters();
  EXPECT_EQ(c.accepted, 5u);
  EXPECT_EQ(c.dropped, 2u);
  EXPECT_EQ(c.drained, 3u);
}

TEST(ShardedIngestQueueTest, DropOldestKeepsFifoAcrossCompactions) {
  // An undrained full shard erases its evicted records as it goes; the
  // records it keeps are still the newest, in push order.
  IngestQueueConfig config;
  config.num_shards = 1;
  config.shard_capacity = 3;
  config.drop_policy = DropPolicy::kDropOldest;
  ShardedIngestQueue queue(config);

  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(queue.Push(Rec(1, i)));
  std::vector<mobility::GpsRecord> out;
  EXPECT_EQ(queue.DrainInto(out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].t, 997.0);
  EXPECT_EQ(out[1].t, 998.0);
  EXPECT_EQ(out[2].t, 999.0);

  EXPECT_TRUE(queue.Push(Rec(1, 1000)));
  EXPECT_TRUE(queue.Push(Rec(1, 1001)));
  out.clear();
  EXPECT_EQ(queue.DrainInto(out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].t, 1000.0);
  EXPECT_EQ(out[1].t, 1001.0);

  const IngestCounters c = queue.counters();
  EXPECT_EQ(c.accepted, 1002u);
  EXPECT_EQ(c.dropped, 997u);
  EXPECT_EQ(c.drained, 5u);
}

TEST(ShardedIngestQueueTest, DepthsReflectQueuedRecords) {
  IngestQueueConfig config;
  config.num_shards = 4;
  ShardedIngestQueue queue(config);
  for (int i = 0; i < 40; ++i) queue.Push(Rec(i, 0.0));

  std::size_t total = 0;
  for (std::size_t d : queue.Depths()) total += d;
  EXPECT_EQ(total, 40u);

  std::vector<mobility::GpsRecord> out;
  queue.DrainInto(out);
  for (std::size_t d : queue.Depths()) EXPECT_EQ(d, 0u);
}

TEST(ShardedIngestQueueTest, SequentialPersonIdsBalanceAtMillionScale) {
  // The balance audit (DESIGN.md §17): strictly sequential person ids are
  // the adversarial input for a multiplicative hash. splitmix64 sharding
  // must keep max/mean cumulative accepted within ~1% of even at 1M
  // people over 16 shards (multinomial sigma there is ~0.4% of the mean).
  IngestQueueConfig config;
  config.num_shards = 16;
  config.shard_capacity = 8192;
  ShardedIngestQueue queue(config);
  EXPECT_EQ(queue.ShardImbalance(), 0.0);  // defined before any record

  std::vector<mobility::GpsRecord> drained;
  mobility::GpsRecord r;
  constexpr int kPeople = 1'000'000;
  for (int person = 0; person < kPeople; ++person) {
    r.person = person;
    r.t = static_cast<double>(person);
    ASSERT_TRUE(queue.Push(r));
    if (person % 50'000 == 49'999) {
      drained.clear();
      queue.DrainInto(drained);
    }
  }
  drained.clear();
  queue.DrainInto(drained);

  const auto accepted = queue.ShardAccepted();
  ASSERT_EQ(accepted.size(), 16u);
  std::uint64_t total = 0;
  std::uint64_t max_shard = 0;
  std::uint64_t min_shard = UINT64_MAX;
  for (const std::uint64_t a : accepted) {
    total += a;
    max_shard = std::max(max_shard, a);
    min_shard = std::min(min_shard, a);
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kPeople));
  EXPECT_EQ(queue.counters().accepted, static_cast<std::uint64_t>(kPeople));
  EXPECT_EQ(queue.counters().dropped, 0u);
  const double mean = static_cast<double>(total) / 16.0;
  EXPECT_LE(static_cast<double>(max_shard) / mean, 1.02)
      << "max " << max_shard << " mean " << mean;
  EXPECT_GE(static_cast<double>(min_shard) / mean, 0.98)
      << "min " << min_shard << " mean " << mean;
  EXPECT_LE(queue.ShardImbalance(), 1.02);
  EXPECT_GT(queue.ShardImbalance(), 0.99);
}

TEST(ShardedIngestQueueTest, ConcurrentProducersLoseNothing) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 2000;
  IngestQueueConfig config;
  config.num_shards = 8;
  config.shard_capacity = kProducers * kPerProducer;  // ample: no drops
  ShardedIngestQueue queue(config);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Each producer owns person ids p, p + kProducers, ... so records
        // of one person come from one thread, in time order.
        queue.Push(Rec(p, 10.0 * i));
      }
    });
  }
  for (std::thread& t : producers) t.join();

  std::vector<mobility::GpsRecord> out;
  EXPECT_EQ(queue.DrainInto(out),
            static_cast<std::size_t>(kProducers * kPerProducer));

  // Per-person order survived the concurrent pushes.
  std::unordered_map<mobility::PersonId, double> last_t;
  for (const mobility::GpsRecord& r : out) {
    const auto it = last_t.find(r.person);
    if (it != last_t.end()) {
      EXPECT_GT(r.t, it->second) << r.person;
    }
    last_t[r.person] = r.t;
  }
  const IngestCounters c = queue.counters();
  EXPECT_EQ(c.accepted, static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(c.dropped, 0u);
}

TEST(ShardedIngestQueueTest, ConcurrentProducersWithDrainer) {
  // Producers push while the consumer drains: nothing is lost, nothing is
  // duplicated (accepted == drained after the final sweep).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  IngestQueueConfig config;
  config.shard_capacity = kProducers * kPerProducer;  // no drops even unpolled
  ShardedIngestQueue queue(config);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) queue.Push(Rec(p, i));
    });
  }
  std::vector<mobility::GpsRecord> out;
  while (out.size() < static_cast<std::size_t>(kProducers * kPerProducer)) {
    queue.DrainInto(out);
  }
  for (std::thread& t : producers) t.join();
  queue.DrainInto(out);

  EXPECT_EQ(out.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  const IngestCounters c = queue.counters();
  EXPECT_EQ(c.accepted, c.drained);
  EXPECT_EQ(c.dropped, 0u);
}

// --- Drop accounting audit (DESIGN.md §13) ---------------------------------

TEST(ShardedIngestQueueTest, DropAccountingSplitsByPolicy) {
  {
    IngestQueueConfig config;
    config.num_shards = 1;
    config.shard_capacity = 2;
    config.drop_policy = DropPolicy::kDropNewest;
    ShardedIngestQueue queue(config);
    for (int i = 0; i < 7; ++i) queue.Push(Rec(1, i));
    const IngestCounters c = queue.counters();
    EXPECT_EQ(c.dropped, 5u);
    EXPECT_EQ(c.dropped_newest, 5u);
    EXPECT_EQ(c.dropped_oldest, 0u);
    // kDropNewest: rejected records were never accepted.
    EXPECT_EQ(c.accepted, 2u);
  }
  {
    IngestQueueConfig config;
    config.num_shards = 1;
    config.shard_capacity = 2;
    config.drop_policy = DropPolicy::kDropOldest;
    ShardedIngestQueue queue(config);
    for (int i = 0; i < 7; ++i) queue.Push(Rec(1, i));
    const IngestCounters c = queue.counters();
    EXPECT_EQ(c.dropped, 5u);
    EXPECT_EQ(c.dropped_oldest, 5u);
    EXPECT_EQ(c.dropped_newest, 0u);
    // kDropOldest: everything was accepted; evictions came later.
    EXPECT_EQ(c.accepted, 7u);
  }
}

TEST(ShardedIngestQueueTest, RegistryCountersMatchAccessorsUnderConcurrency) {
  // The accessor struct and the registry-backed instruments are two views
  // of the same striped atomics; after a concurrent overflow hammering
  // they must agree exactly (and dropped must equal its per-policy split).
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 3000;
  for (const DropPolicy policy :
       {DropPolicy::kDropNewest, DropPolicy::kDropOldest}) {
    // Baseline: any other live queues' contributions (instruments vanish
    // from the snapshot when their queue dies, hence a fresh delta per
    // iteration).
    obs::SnapshotDelta delta(obs::Registry::Global());

    IngestQueueConfig config;
    config.num_shards = 2;
    config.shard_capacity = 64;  // tiny: force heavy drops
    config.drop_policy = policy;
    ShardedIngestQueue queue(config);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&queue, p] {
        for (int i = 0; i < kPerProducer; ++i) queue.Push(Rec(p, i));
      });
    }
    for (std::thread& t : producers) t.join();
    std::vector<mobility::GpsRecord> out;
    queue.DrainInto(out);

    constexpr std::uint64_t kTotal =
        static_cast<std::uint64_t>(kProducers) * kPerProducer;
    const IngestCounters c = queue.counters();
    EXPECT_GT(c.dropped, 0u);
    // The audit identity: every drop is attributed to exactly one policy.
    EXPECT_EQ(c.dropped, c.dropped_newest + c.dropped_oldest);
    if (policy == DropPolicy::kDropNewest) {
      EXPECT_EQ(c.dropped_oldest, 0u);
      EXPECT_EQ(c.accepted + c.dropped, kTotal);
      EXPECT_EQ(c.drained, c.accepted);
    } else {
      EXPECT_EQ(c.dropped_newest, 0u);
      EXPECT_EQ(c.accepted, kTotal);
      EXPECT_EQ(c.drained, c.accepted - c.dropped);
    }
    EXPECT_EQ(out.size(), c.drained);

    // Registry view (while the queue is live): deltas equal the accessors.
    EXPECT_EQ(delta.Delta("serve_ingest_accepted_total"),
              static_cast<double>(c.accepted));
    EXPECT_EQ(delta.Delta("serve_ingest_dropped_total"),
              static_cast<double>(c.dropped));
    EXPECT_EQ(delta.Delta("serve_ingest_dropped_newest_total"),
              static_cast<double>(c.dropped_newest));
    EXPECT_EQ(delta.Delta("serve_ingest_dropped_oldest_total"),
              static_cast<double>(c.dropped_oldest));
    EXPECT_EQ(delta.Delta("serve_ingest_drained_total"),
              static_cast<double>(c.drained));
  }
}

}  // namespace
}  // namespace mobirescue::serve
