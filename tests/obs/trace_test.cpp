#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace mobirescue::obs {
namespace {

// Local recorders keep these tests independent of spans produced by
// instrumented production code on the global recorder.

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  TraceRecorder rec;
  EXPECT_FALSE(rec.enabled());
  { ScopedSpan span("noop", rec); }
  EXPECT_TRUE(rec.Collect().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceTest, SpanRecordsNameAndDuration) {
  TraceRecorder rec;
  rec.Enable();
  {
    ScopedSpan outer("outer", rec);
    ScopedSpan inner("inner", rec);
  }
  rec.Disable();
  const std::vector<TraceEvent> events = rec.Collect();
  ASSERT_EQ(events.size(), 2u);
  // Collect sorts by start time: outer opened first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  // Inner closes first (reverse destruction order), so outer covers it.
  EXPECT_GE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(TraceTest, SpanStartedWhileDisabledStaysUnrecorded) {
  TraceRecorder rec;
  {
    ScopedSpan span("early", rec);  // recorder disabled at entry
    rec.Enable();
  }
  EXPECT_TRUE(rec.Collect().empty());
}

TEST(TraceTest, ClearResetsEventsAndEpoch) {
  TraceRecorder rec;
  rec.Enable();
  { ScopedSpan span("before_clear", rec); }
  ASSERT_EQ(rec.Collect().size(), 1u);
  rec.Clear();
  EXPECT_TRUE(rec.Collect().empty());
  EXPECT_EQ(rec.dropped(), 0u);
  { ScopedSpan span("after_clear", rec); }
  const std::vector<TraceEvent> events = rec.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "after_clear");
}

TEST(TraceTest, RingWrapsAndCountsDrops) {
  TraceRecorder rec;
  rec.set_ring_capacity(8);
  rec.Enable();
  for (int i = 0; i < 20; ++i) {
    ScopedSpan span("spin", rec);
  }
  const std::vector<TraceEvent> events = rec.Collect();
  EXPECT_EQ(events.size(), 8u);
  EXPECT_EQ(rec.dropped(), 12u);
  // The retained window is the most recent events: starts are the 8
  // latest, still sorted ascending.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
  }
}

TEST(TraceTest, ZeroCapacityDropsEverything) {
  TraceRecorder rec;
  rec.set_ring_capacity(0);
  rec.Enable();
  { ScopedSpan span("dropped", rec); }
  EXPECT_TRUE(rec.Collect().empty());
  EXPECT_EQ(rec.dropped(), 1u);
}

TEST(TraceTest, ClearAppliesALoweredOrRaisedCapacity) {
  // An existing ring takes the current capacity at Clear(), in both
  // directions (a lowered one used to be ignored).
  TraceRecorder rec;
  rec.Enable();
  { ScopedSpan span("before", rec); }
  rec.set_ring_capacity(4);
  rec.Clear();
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("lowered", rec);
  }
  EXPECT_EQ(rec.Collect().size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);

  rec.set_ring_capacity(16);
  rec.Clear();
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("raised", rec);
  }
  EXPECT_EQ(rec.Collect().size(), 10u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceTest, ThreadsGetDistinctStableTids) {
  TraceRecorder rec;
  rec.Enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span("worker", rec);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<TraceEvent> events = rec.Collect();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  std::set<std::uint32_t> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceTest, CollectUnderConcurrentRecording) {
  TraceRecorder rec;
  rec.set_ring_capacity(1024);
  rec.Enable();
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&rec] {
      for (int i = 0; i < 20000; ++i) {
        ScopedSpan span("churn", rec);
      }
    });
  }
  // Collect concurrently with recording: events must always be internally
  // consistent (named, sorted) even while rings wrap underneath.
  for (int i = 0; i < 50; ++i) {
    const std::vector<TraceEvent> events = rec.Collect();
    for (std::size_t k = 1; k < events.size(); ++k) {
      ASSERT_GE(events[k].start_ns, events[k - 1].start_ns);
    }
    for (const TraceEvent& e : events) {
      ASSERT_NE(e.name, nullptr);
      ASSERT_STREQ(e.name, "churn");
    }
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(rec.Collect().size(), 3u * 1024u);
  EXPECT_EQ(rec.dropped(), 3u * (20000u - 1024u));
}

TEST(TraceTest, SeparateRecordersAreIndependent) {
  // The thread-local ring cache must not leak a ring from one recorder
  // into another (recorders are id-keyed, not address-keyed).
  auto first = std::make_unique<TraceRecorder>();
  first->Enable();
  { ScopedSpan span("first", *first); }
  ASSERT_EQ(first->Collect().size(), 1u);
  first.reset();

  TraceRecorder second;
  second.Enable();
  { ScopedSpan span("second", second); }
  const std::vector<TraceEvent> events = second.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "second");
}

TEST(TraceTest, GlobalRecorderDrivesObsSpanMacro) {
  TraceRecorder& global = TraceRecorder::Global();
  global.Clear();
  global.Enable();
  { OBS_SPAN("macro.span"); }
  global.Disable();
  const std::vector<TraceEvent> events = global.Collect();
  const auto it = std::find_if(
      events.begin(), events.end(), [](const TraceEvent& e) {
        return std::string(e.name) == "macro.span";
      });
  EXPECT_NE(it, events.end());
  global.Clear();
}

}  // namespace
}  // namespace mobirescue::obs
