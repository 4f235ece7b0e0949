/**
 * @file
 * Span-ring tracer unit tests (src/obs/trace.hh): the disabled fast
 * path records nothing, RAII spans nest and order parent-first,
 * wraparound drops are counted rather than hidden, cross-thread
 * collect() merges in begin-time order, and ambient TagScope tags
 * stick to nested spans, and the rings of exited threads are freed at
 * the next reset. The whole suite runs under ThreadSanitizer
 * in scripts/check.sh — the cross-thread tests double as the
 * data-race proof for the per-recorder mutex design.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hh"

namespace pce::obs {
namespace {

/** Every test starts disabled, empty, and at default capacity. */
class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setTraceEnabled(false);
        Tracer::instance().setCapacityPerThread(16384);
        Tracer::instance().reset();
    }
    void TearDown() override
    {
        setTraceEnabled(false);
        Tracer::instance().reset();
    }
};

TEST_F(TraceTest, DisabledFastPathRecordsNothing)
{
    {
        TraceSpan span("should/not/appear");
        span.arg("x", 7);
        traceInstant("also/not");
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(Tracer::instance().recordedEvents(), 0u);
    EXPECT_EQ(Tracer::instance().droppedEvents(), 0u);
    EXPECT_TRUE(Tracer::instance().collect().empty());
}

TEST_F(TraceTest, SpanBegunWhileDisabledStaysInert)
{
    // The enable check happens once, at span begin: flipping tracing
    // on mid-span must not record a half-timed event.
    TraceSpan span("begun/disabled");
    setTraceEnabled(true);
    span.end();
    EXPECT_EQ(Tracer::instance().recordedEvents(), 0u);
}

TEST_F(TraceTest, RaiiNestingParentsPrecedeChildren)
{
    setTraceEnabled(true);
    {
        TraceSpan outer("outer");
        {
            TraceSpan inner("inner");
        }
    }
    const std::vector<TraceEvent> events =
        Tracer::instance().collect();
    ASSERT_EQ(events.size(), 2u);
    // collect() orders parents first even though the child *records*
    // first (it ends first).
    EXPECT_STREQ(events[0].name, "outer");
    EXPECT_STREQ(events[1].name, "inner");
    EXPECT_LE(events[0].beginNs, events[1].beginNs);
    EXPECT_GE(events[0].endNs, events[1].endNs);
    EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, ExplicitEndIsIdempotent)
{
    setTraceEnabled(true);
    {
        TraceSpan span("once");
        span.end();
        span.end();  // destructor will be the third attempt
    }
    EXPECT_EQ(Tracer::instance().recordedEvents(), 1u);
}

TEST_F(TraceTest, WraparoundCountsDropsAndKeepsNewest)
{
    Tracer::instance().setCapacityPerThread(8);
    setTraceEnabled(true);
    for (std::uint64_t i = 0; i < 20; ++i)
        traceInstant("tick", "i", i);

    EXPECT_EQ(Tracer::instance().recordedEvents(), 20u);
    EXPECT_EQ(Tracer::instance().droppedEvents(), 12u);
    const std::vector<TraceEvent> events =
        Tracer::instance().collect();
    ASSERT_EQ(events.size(), 8u);
    // The ring keeps the *newest* events, oldest-first.
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_STREQ(events[i].name, "tick");
        EXPECT_EQ(events[i].arg, 12 + i) << "slot " << i;
    }
}

TEST_F(TraceTest, ResetClearsEventsAndDropCounters)
{
    Tracer::instance().setCapacityPerThread(4);
    setTraceEnabled(true);
    for (int i = 0; i < 9; ++i)
        traceInstant("tick");
    ASSERT_GT(Tracer::instance().droppedEvents(), 0u);
    Tracer::instance().reset();
    EXPECT_EQ(Tracer::instance().recordedEvents(), 0u);
    EXPECT_EQ(Tracer::instance().droppedEvents(), 0u);
    EXPECT_TRUE(Tracer::instance().collect().empty());
    traceInstant("after");
    EXPECT_EQ(Tracer::instance().recordedEvents(), 1u);
}

TEST_F(TraceTest, CrossThreadMergeOrdersByBeginTime)
{
    setTraceEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 50;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([t] {
            Tracer::instance().nameThread("worker" +
                                          std::to_string(t));
            for (int i = 0; i < kSpansPerThread; ++i) {
                TraceSpan span("work");
                span.arg("i", static_cast<std::uint64_t>(i));
            }
        });
    for (std::thread &w : workers)
        w.join();

    const std::vector<TraceEvent> events =
        Tracer::instance().collect();
    ASSERT_EQ(events.size(),
              static_cast<std::size_t>(kThreads * kSpansPerThread));
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].beginNs, events[i].beginNs)
            << "merge order broken at " << i;
    // All four recorders contributed, under distinct tids.
    std::vector<std::uint32_t> tids;
    for (const TraceEvent &e : events)
        tids.push_back(e.tid);
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
    EXPECT_EQ(Tracer::instance().threadNames().size(),
              static_cast<std::size_t>(kThreads));
}

TEST_F(TraceTest, ConcurrentRecordAndCollectIsSafe)
{
    // The TSan-facing test: one thread records while another
    // repeatedly merges and resets. No assertion beyond "no race" —
    // counts are racy by design, memory safety is not.
    setTraceEnabled(true);
    std::atomic<bool> stop{false};
    std::thread recorder([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            TraceSpan span("hot");
            traceInstant("dot");
        }
    });
    for (int i = 0; i < 50; ++i) {
        (void)Tracer::instance().collect();
        (void)Tracer::instance().recordedEvents();
        if (i % 10 == 9)
            Tracer::instance().reset();
    }
    stop.store(true, std::memory_order_relaxed);
    recorder.join();
}

TEST_F(TraceTest, TagScopeAppliesAmbientTagAndNests)
{
    setTraceEnabled(true);
    const TraceTag outer{7, 1, 0};
    const TraceTag inner{8, 2, 1};
    {
        TagScope scope_outer(outer);
        traceInstant("at_outer");
        {
            TagScope scope_inner(inner);
            TraceSpan span("at_inner");
        }
        traceInstant("back_at_outer");
    }
    traceInstant("no_tag");

    const std::vector<TraceEvent> events =
        Tracer::instance().collect();
    ASSERT_EQ(events.size(), 4u);
    auto find = [&](const char *name) -> const TraceEvent & {
        for (const TraceEvent &e : events)
            if (std::string(e.name) == name)
                return e;
        static TraceEvent none;
        return none;
    };
    EXPECT_EQ(find("at_outer").frame, 7u);
    EXPECT_EQ(find("at_outer").stream, 1u);
    EXPECT_EQ(find("at_inner").frame, 8u);
    EXPECT_EQ(find("at_inner").shard, 1);
    EXPECT_EQ(find("back_at_outer").frame, 7u);
    EXPECT_EQ(find("no_tag").frame, kNoFrame);
    EXPECT_EQ(find("no_tag").stream, kNoStream);
    EXPECT_EQ(find("no_tag").shard, kNoShard);
}

TEST_F(TraceTest, ExplicitBeginStitchesSpansExactly)
{
    setTraceEnabled(true);
    const std::uint64_t t0 = traceNowNs();
    const std::uint64_t t1 = traceNowNs();
    recordSpan("first", t0, t1, TraceTag{});
    recordSpan("second", t1, traceNowNs(), TraceTag{});
    const std::vector<TraceEvent> events =
        Tracer::instance().collect();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].endNs, events[1].beginNs);
}

TEST_F(TraceTest, ExitedThreadRingsAreFreedAtReset)
{
    // A process that keeps spawning short-lived recording threads
    // (one service per repeat) must not keep one ring per thread it
    // ever ran: an exited thread's events stay collectable until the
    // next reset(), which then frees its ring.
    setTraceEnabled(true);
    const std::size_t live = Tracer::instance().threadCount();
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 5;
    for (int round = 0; round < 20; ++round) {
        std::vector<std::thread> workers;
        for (int t = 0; t < kThreads; ++t)
            workers.emplace_back([t] {
                Tracer::instance().nameThread("short" +
                                              std::to_string(t));
                for (int i = 0; i < kSpansPerThread; ++i)
                    TraceSpan span("short/work");
            });
        for (std::thread &w : workers)
            w.join();
        EXPECT_EQ(Tracer::instance().collect().size(),
                  static_cast<std::size_t>(kThreads * kSpansPerThread))
            << "round " << round;
        EXPECT_EQ(Tracer::instance().threadNames().size(),
                  static_cast<std::size_t>(kThreads))
            << "round " << round;
        EXPECT_EQ(Tracer::instance().threadCount(), live + kThreads)
            << "round " << round;
        Tracer::instance().reset();
        EXPECT_EQ(Tracer::instance().threadCount(), live)
            << "round " << round;
    }
    // The calling thread keeps its recorder across resets.
    traceInstant("still/here");
    EXPECT_EQ(Tracer::instance().recordedEvents(), 1u);
}

} // namespace
} // namespace pce::obs
