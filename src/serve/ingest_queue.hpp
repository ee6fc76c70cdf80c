// Sharded, bounded, thread-safe ingestion queues for streamed GPS samples.
//
// The online DispatchService (DESIGN.md §11) accepts raw GPS records from
// many producer threads. Records are sharded by person id so that (a) lock
// contention is split across shards and (b) each person's records stay in
// one FIFO — per-person time order survives ingestion, which is what the
// downstream incremental state needs (cross-person interleaving is
// irrelevant: dispatch decisions depend only on latest-position content).
//
// Each shard is bounded; when full, the configured DropPolicy decides
// whether the incoming record is rejected (kDropNewest) or the shard's
// oldest queued record is evicted to make room (kDropOldest, the default:
// for last-known-position tracking, newer samples are strictly more
// valuable than stale ones). Drops are counted, never silent.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "mobility/gps_record.hpp"
#include "obs/metrics.hpp"

namespace mobirescue::serve {

/// What to do with an arriving record when its shard is full.
enum class DropPolicy {
  kDropNewest,  // reject the incoming record (backpressure to the producer)
  kDropOldest,  // evict the shard's oldest queued record (freshness wins)
};

struct IngestQueueConfig {
  std::size_t num_shards = 8;
  /// Per-shard bound on queued (not yet drained) records.
  std::size_t shard_capacity = 4096;
  DropPolicy drop_policy = DropPolicy::kDropOldest;
};

/// Cumulative ingestion counters. A thin view over the queue's
/// registry-backed obs::Counter instruments: each field is individually
/// exact (striped atomic sums), and the triple is consistent once
/// producers are quiescent.
struct IngestCounters {
  std::uint64_t accepted = 0;  // records enqueued
  std::uint64_t dropped = 0;   // records lost to a full shard (either policy)
  std::uint64_t dropped_newest = 0;  // incoming records rejected (kDropNewest)
  std::uint64_t dropped_oldest = 0;  // queued records evicted (kDropOldest)
  std::uint64_t drained = 0;   // records handed to the consumer
};

class ShardedIngestQueue {
 public:
  explicit ShardedIngestQueue(IngestQueueConfig config = {});

  ShardedIngestQueue(const ShardedIngestQueue&) = delete;
  ShardedIngestQueue& operator=(const ShardedIngestQueue&) = delete;

  /// Enqueues one record (thread-safe, any number of producers). Returns
  /// false iff the record was dropped (kDropNewest on a full shard); under
  /// kDropOldest the call always succeeds but may evict — and count — the
  /// shard's oldest record.
  bool Push(const mobility::GpsRecord& record);

  /// Drains every shard into `out` (appended), in shard order; within a
  /// shard, FIFO. Single consumer expected, but safe against concurrent
  /// producers. Returns the number of records drained.
  std::size_t DrainInto(std::vector<mobility::GpsRecord>& out);

  /// Current queued depth of each shard (racy snapshot, for metrics).
  std::vector<std::size_t> Depths() const;

  /// Cumulative records accepted per shard (racy snapshot across shards;
  /// each entry exact under its shard lock). The basis of the balance
  /// audit: splitmix64 sharding must spread even strictly sequential
  /// person ids evenly (ingest_queue_test pins a bound at 1M people).
  std::vector<std::uint64_t> ShardAccepted() const;

  /// Max/mean of ShardAccepted(): 1.0 = perfectly balanced. Returns 0
  /// before any record is accepted. Exported as the service gauge
  /// serve_ingest_shard_imbalance (ServiceMetrics::shard_imbalance).
  double ShardImbalance() const;

  IngestCounters counters() const;

  const IngestQueueConfig& config() const { return config_; }

  /// The shard a person's records land in: a splitmix64-style mix so that
  /// consecutive person ids spread across shards.
  static std::size_t ShardOf(mobility::PersonId person,
                             std::size_t num_shards);

 private:
  struct Shard {
    mutable std::mutex mu;
    /// FIFO: evict at `head`, push at the back. `head` avoids an O(n)
    /// erase-from-front per eviction; the evicted prefix is erased on
    /// drain, or by Push once it reaches shard_capacity.
    std::vector<mobility::GpsRecord> buf;
    std::size_t head = 0;
    /// Cumulative accepted count (under mu): feeds the balance audit.
    std::uint64_t accepted = 0;

    std::size_t size() const { return buf.size() - head; }
  };

  IngestQueueConfig config_;
  std::vector<Shard> shards_;
  // Queue-level registry-backed tallies (obs/metrics.hpp) replacing the
  // old per-shard uint64 fields; increments are uncontended striped
  // fetch_adds outside the shard locks.
  obs::Counter accepted_{"serve_ingest_accepted_total",
                         "GPS records enqueued by producers."};
  obs::Counter dropped_{"serve_ingest_dropped_total",
                        "GPS records lost to a full shard (either policy)."};
  // The per-policy split of dropped_: dropped == dropped_newest +
  // dropped_oldest once producers are quiescent.
  obs::Counter dropped_newest_{
      "serve_ingest_dropped_newest_total",
      "Incoming GPS records rejected by a full shard (kDropNewest)."};
  obs::Counter dropped_oldest_{
      "serve_ingest_dropped_oldest_total",
      "Queued GPS records evicted by a full shard (kDropOldest)."};
  obs::Counter drained_{"serve_ingest_drained_total",
                        "GPS records handed to the tick-loop consumer."};
};

}  // namespace mobirescue::serve
