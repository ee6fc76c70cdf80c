#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace mobirescue::obs {
namespace {

// Local recorders keep these tests independent of events emitted by
// instrumented production code on the global recorder.

TEST(FlightRecorderTest, EnabledByDefaultAndRecordsEvents) {
  FlightRecorder rec;
  EXPECT_TRUE(rec.enabled());  // the black box is on out of the box
  rec.Emit(Severity::kWarn, "serve", "quarantine", "person=7 reason=stale");
  rec.Emit(Severity::kError, "serve", "kill", "tick=97");
  const std::vector<Event> events = rec.Collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].severity, Severity::kWarn);
  EXPECT_STREQ(events[0].component, "serve");
  EXPECT_STREQ(events[0].kind, "quarantine");
  EXPECT_EQ(events[0].attrs, "person=7 reason=stale");
  EXPECT_EQ(events[1].severity, Severity::kError);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.emitted(), 2u);
}

TEST(FlightRecorderTest, DisabledRecorderDropsNothingSilently) {
  FlightRecorder rec;
  rec.Disable();
  rec.Emit(Severity::kInfo, "serve", "tick_start");
  EXPECT_TRUE(rec.Collect().empty());
  EXPECT_EQ(rec.emitted(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(FlightRecorderTest, RingOverwritesOldestAndKeepsEmissionOrder) {
  FlightRecorder rec;
  rec.set_ring_capacity(4);
  for (int i = 0; i < 10; ++i) {
    rec.Emit(Severity::kInfo, "sim", "blockage", "n=" + std::to_string(i));
  }
  const std::vector<Event> events = rec.Collect();
  ASSERT_EQ(events.size(), 4u);
  // Overwrite-oldest: exactly the newest four survive, still seq-sorted.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].attrs, "n=" + std::to_string(6 + i));
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
  }
  EXPECT_EQ(rec.dropped(), 6u);
  EXPECT_EQ(rec.emitted(), 10u);
}

TEST(FlightRecorderTest, CollectRecentReturnsTheTail) {
  FlightRecorder rec;
  for (int i = 0; i < 8; ++i) {
    rec.Emit(Severity::kInfo, "learn", "promotion", "n=" + std::to_string(i));
  }
  const std::vector<Event> tail = rec.CollectRecent(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].attrs, "n=5");
  EXPECT_EQ(tail[2].attrs, "n=7");
  // A window wider than the history returns everything.
  EXPECT_EQ(rec.CollectRecent(100).size(), 8u);
}

TEST(FlightRecorderTest, ClearDropsEventsButSeqKeepsCounting) {
  FlightRecorder rec;
  rec.Emit(Severity::kInfo, "serve", "tick_start");
  rec.Clear();
  EXPECT_TRUE(rec.Collect().empty());
  EXPECT_EQ(rec.dropped(), 0u);
  rec.Emit(Severity::kInfo, "serve", "tick_end");
  const std::vector<Event> events = rec.Collect();
  ASSERT_EQ(events.size(), 1u);
  // seq stays process-unique across Clear, so bundles never alias events.
  EXPECT_EQ(events[0].seq, 2u);
}

TEST(FlightRecorderTest, ClearAppliesALoweredOrRaisedCapacity) {
  FlightRecorder rec;
  rec.Emit(Severity::kInfo, "serve", "before");
  rec.set_ring_capacity(4);
  rec.Clear();
  for (int i = 0; i < 10; ++i) rec.Emit(Severity::kInfo, "serve", "lowered");
  EXPECT_EQ(rec.Collect().size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);

  rec.set_ring_capacity(16);
  rec.Clear();
  for (int i = 0; i < 10; ++i) rec.Emit(Severity::kInfo, "serve", "raised");
  EXPECT_EQ(rec.Collect().size(), 10u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(FlightRecorderTest, SpansAndEventsOnOneThreadKeepTheirOwnRings) {
  // Each element type has its own thread-local ring cache: interleaving
  // spans and flight events on one thread lands every element in the
  // right recorder.
  FlightRecorder flight;
  TraceRecorder trace;
  trace.Enable();
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span("work", trace);
    flight.Emit(Severity::kInfo, "serve", "tick", "n=" + std::to_string(i));
  }
  const std::vector<Event> events = flight.Collect();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[4].attrs, "n=4");
  const std::vector<TraceEvent> spans = trace.Collect();
  ASSERT_EQ(spans.size(), 5u);
  for (const TraceEvent& s : spans) EXPECT_STREQ(s.name, "work");
}

TEST(FlightRecorderTest, CollectUnderConcurrentEmission) {
  FlightRecorder rec;
  rec.set_ring_capacity(256);
  constexpr int kThreads = 3;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.Emit(Severity::kInfo, "bench", "churn", "i=" + std::to_string(i));
      }
    });
  }
  // Collect while the rings wrap underneath: always seq-sorted and whole.
  for (int i = 0; i < 50; ++i) {
    const std::vector<Event> events = rec.Collect();
    for (std::size_t k = 1; k < events.size(); ++k) {
      ASSERT_LT(events[k - 1].seq, events[k].seq);
    }
    for (const Event& e : events) ASSERT_STREQ(e.kind, "churn");
    (void)rec.dropped();
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(rec.Collect().size(), kThreads * 256u);
  EXPECT_EQ(rec.dropped(), kThreads * (kPerThread - 256u));
}

TEST(FlightRecorderTest, ConcurrentEmittersGetUniqueTotalOrder) {
  FlightRecorder rec;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  rec.set_ring_capacity(kPerThread + 16);  // per-thread rings: no wrap
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.Emit(Severity::kInfo, "bench", "event");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<Event> events = rec.Collect();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(rec.dropped(), 0u);
  std::set<std::uint64_t> seqs;
  for (std::size_t i = 0; i < events.size(); ++i) {
    seqs.insert(events[i].seq);
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
  }
  // The global seq gives every event a distinct place in one timeline.
  EXPECT_EQ(seqs.size(), events.size());
}

TEST(FlightRecorderTest, SeverityNames) {
  EXPECT_STREQ(SeverityName(Severity::kInfo), "info");
  EXPECT_STREQ(SeverityName(Severity::kWarn), "warn");
  EXPECT_STREQ(SeverityName(Severity::kError), "error");
}

}  // namespace
}  // namespace mobirescue::obs
