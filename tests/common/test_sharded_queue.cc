/**
 * @file
 * ShardedStealQueue: per-lane FIFO hand-out, lane exclusivity, steal
 * routing and counters, per-shard backpressure, close/drain protocol,
 * and a multi-consumer stress run that checks the full contract the
 * sharded encode service is built on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "common/sharded_queue.hh"

namespace pce {
namespace {

TEST(ShardedStealQueue, OwnShardFifoSingleLane)
{
    ShardedStealQueue<int> q(2, 8);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(q.push(0, 7, i));
    EXPECT_EQ(q.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        auto p = q.popForShard(0);
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(p->value, i);
        EXPECT_EQ(p->lane, 7u);
        EXPECT_EQ(p->homeShard, 0u);
        EXPECT_FALSE(p->stolen);
        q.finishLane(7);
    }
    EXPECT_EQ(q.size(), 0u);

    // Wrap-around: interleave fills and partial drains past the ring's
    // capacity several times so its head/count arithmetic wraps.
    ShardedStealQueue<int> ring(1, 3);
    int next_push = 0;
    int next_pop = 0;
    for (int round = 0; round < 10; ++round) {
        while (ring.size() < ring.capacity())
            ASSERT_TRUE(ring.push(0, 7, next_push++));
        for (int i = 0; i < 2; ++i) {
            auto p = ring.popForShard(0);
            ASSERT_TRUE(p.has_value());
            EXPECT_EQ(p->value, next_pop++);
            ring.finishLane(7);
        }
    }
}

TEST(ShardedStealQueue, LaneExclusivityHoldsBackSameLane)
{
    ShardedStealQueue<int> q(1, 8);
    ASSERT_TRUE(q.push(0, 1, 10));
    ASSERT_TRUE(q.push(0, 1, 11));
    ASSERT_TRUE(q.push(0, 2, 20));

    auto first = q.popForShard(0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->value, 10);

    // Lane 1 is held: the next hand-out must skip 11 and serve lane 2
    // even though 11 is older in the ring.
    auto second = q.popForShard(0);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->value, 20);
    EXPECT_EQ(second->lane, 2u);

    q.finishLane(1);
    auto third = q.popForShard(0);
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(third->value, 11) << "lane 1 resumes in FIFO order";
    q.finishLane(2);
    q.finishLane(1);
}

TEST(ShardedStealQueue, StealServesIdleConsumerAndCounts)
{
    ShardedStealQueue<int> q(2, 8);
    ASSERT_TRUE(q.push(0, 1, 42));
    auto p = q.popForShard(1);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->value, 42);
    EXPECT_EQ(p->homeShard, 0u);
    EXPECT_TRUE(p->stolen);
    q.finishLane(1);

    EXPECT_EQ(q.counters(1).stealsBy, 1u);
    EXPECT_EQ(q.counters(0).stolenFrom, 1u);
    EXPECT_EQ(q.counters(0).stealsBy, 0u);
}

TEST(ShardedStealQueue, StealPrefersMostLoadedShard)
{
    ShardedStealQueue<int> q(3, 8);
    ASSERT_TRUE(q.push(0, 1, 100));
    ASSERT_TRUE(q.push(1, 2, 200));
    ASSERT_TRUE(q.push(1, 3, 201));
    // Shard 2 is idle; shard 1 is the deepest backlog, so the steal
    // comes from there (its ring head), not shard 0.
    auto p = q.popForShard(2);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->homeShard, 1u);
    EXPECT_EQ(p->value, 200);
    q.finishLane(p->lane);
}

TEST(ShardedStealQueue, PushRefusedAfterCloseQueueStillDrains)
{
    ShardedStealQueue<int> q(2, 4);
    ASSERT_TRUE(q.push(0, 1, 1));
    ASSERT_TRUE(q.push(1, 2, 2));
    q.close();
    EXPECT_FALSE(q.push(0, 3, 3));

    auto a = q.popForShard(0);
    ASSERT_TRUE(a.has_value());
    q.finishLane(a->lane);
    auto b = q.popForShard(0);  // steals shard 1's leftover
    ASSERT_TRUE(b.has_value());
    EXPECT_TRUE(b->stolen);
    q.finishLane(b->lane);
    EXPECT_FALSE(q.popForShard(0).has_value());
    EXPECT_FALSE(q.popForShard(1).has_value());
}

TEST(ShardedStealQueue, BlockedPushAndPopWakeOnPopOrClose)
{
    // A push blocked on a full shard wakes when a pop makes room (and
    // is accepted) or when close() ends the queue (and is refused).
    for (const bool by_close : {false, true}) {
        ShardedStealQueue<int> q(2, 1);
        ASSERT_TRUE(q.push(0, 1, 1));
        std::atomic<bool> returned{false};
        std::thread producer([&] {
            EXPECT_EQ(q.push(0, 2, 2), !by_close)
                << (by_close ? "woken by close, not space"
                             : "woken by the pop's space");
            returned.store(true);
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_FALSE(returned.load()) << "push must block while full";
        if (by_close) {
            q.close();
        } else {
            auto p = q.popForShard(0);
            ASSERT_TRUE(p.has_value());
            EXPECT_EQ(p->value, 1);
            q.finishLane(p->lane);
        }
        producer.join();
        EXPECT_TRUE(returned.load());
        if (!by_close) {
            auto p = q.popForShard(0);
            ASSERT_TRUE(p.has_value());
            EXPECT_EQ(p->value, 2);
            q.finishLane(p->lane);
        }
    }

    // A consumer blocked on an empty queue wakes on close() and ends.
    ShardedStealQueue<int> empty(2, 1);
    std::atomic<bool> ended{false};
    std::thread consumer([&] {
        EXPECT_FALSE(empty.popForShard(1).has_value());
        ended.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(ended.load()) << "pop must block while empty";
    empty.close();
    consumer.join();
    EXPECT_TRUE(ended.load());
}

TEST(ShardedStealQueue, PerShardBackpressureIsIndependent)
{
    // Shard 0 full; shard 1 must still accept without blocking.
    ShardedStealQueue<int> q(2, 1);
    ASSERT_TRUE(q.push(0, 1, 1));
    ASSERT_TRUE(q.push(1, 2, 2));
    q.close();
    auto a = q.popForShard(0);
    ASSERT_TRUE(a.has_value());
    q.finishLane(a->lane);
    auto b = q.popForShard(1);
    ASSERT_TRUE(b.has_value());
    q.finishLane(b->lane);
}

TEST(ShardedStealQueue, ConsumerBlockedOnHeldLaneWakesOnFinish)
{
    // The only queued element's lane is held: a consumer must wait —
    // even after close() — and wake when finishLane releases it (the
    // shutdown-drain path of the service).
    ShardedStealQueue<int> q(1, 4);
    ASSERT_TRUE(q.push(0, 1, 10));
    ASSERT_TRUE(q.push(0, 1, 11));
    auto first = q.popForShard(0);
    ASSERT_TRUE(first.has_value());
    q.close();

    std::atomic<bool> got{false};
    std::thread consumer([&] {
        auto p = q.popForShard(0);
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(p->value, 11);
        got.store(true);
        q.finishLane(p->lane);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(got.load()) << "lane still held";
    q.finishLane(1);
    consumer.join();
    EXPECT_TRUE(got.load());
    EXPECT_FALSE(q.popForShard(0).has_value());
}

TEST(ShardedStealQueue, PeakDepthPerShardAndAggregate)
{
    ShardedStealQueue<int> q(2, 4);
    ASSERT_TRUE(q.push(0, 1, 1));
    ASSERT_TRUE(q.push(0, 2, 2));
    ASSERT_TRUE(q.push(1, 3, 3));
    EXPECT_EQ(q.counters(0).peakDepth, 2u);
    EXPECT_EQ(q.counters(1).peakDepth, 1u);
    EXPECT_EQ(q.aggregatePeakDepth(), 3u);
    // Draining does not lower peaks.
    for (int i = 0; i < 3; ++i) {
        auto p = q.popForShard(0);
        ASSERT_TRUE(p.has_value());
        q.finishLane(p->lane);
    }
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.counters(0).peakDepth, 2u);
    EXPECT_EQ(q.aggregatePeakDepth(), 3u);
    EXPECT_EQ(q.counters(0).pushes, 2u);
    EXPECT_EQ(q.counters(1).pushes, 1u);
}

TEST(ShardedStealQueue, FinishUnknownLaneThrows)
{
    ShardedStealQueue<int> q(1, 2);
    EXPECT_THROW(q.finishLane(99), std::logic_error);
}

TEST(ShardedStealQueue, StressDeliversEachOnceInLaneOrderExclusively)
{
    // The full service contract under contention: several producers
    // push per-lane sequences to hashed home shards while one
    // consumer per shard pops (own ring + steals). Every element must
    // arrive exactly once, per-lane in push order, and no lane may
    // ever be held by two consumers at once.
    const std::size_t kShards = 4;
    const int kLanes = 8;
    const int kPerLane = 200;
    ShardedStealQueue<std::pair<int, int>> q(kShards, 4);

    std::vector<std::atomic<int>> laneBusy(kLanes);
    std::vector<std::atomic<int>> laneNext(kLanes);
    for (int l = 0; l < kLanes; ++l) {
        laneBusy[l].store(0);
        laneNext[l].store(0);
    }
    std::atomic<int> delivered{0};
    std::atomic<int> violations{0};

    std::vector<std::thread> consumers;
    for (std::size_t s = 0; s < kShards; ++s) {
        consumers.emplace_back([&, s] {
            while (auto p = q.popForShard(s)) {
                const int lane = p->value.first;
                const int seq = p->value.second;
                if (laneBusy[lane].fetch_add(1) != 0)
                    ++violations;  // two holders of one lane
                if (laneNext[lane].fetch_add(1) != seq)
                    ++violations;  // out of lane order
                std::this_thread::yield();
                laneBusy[lane].fetch_sub(1);
                ++delivered;
                q.finishLane(p->lane);
            }
        });
    }

    std::vector<std::thread> producers;
    for (int l = 0; l < kLanes; ++l) {
        producers.emplace_back([&, l] {
            const std::size_t home =
                static_cast<std::size_t>(l) % kShards;
            for (int i = 0; i < kPerLane; ++i)
                ASSERT_TRUE(q.push(home,
                                   static_cast<std::uint64_t>(l),
                                   {l, i}));
        });
    }
    for (auto &t : producers)
        t.join();
    q.close();
    for (auto &t : consumers)
        t.join();

    EXPECT_EQ(delivered.load(), kLanes * kPerLane);
    EXPECT_EQ(violations.load(), 0);
    for (int l = 0; l < kLanes; ++l)
        EXPECT_EQ(laneNext[l].load(), kPerLane);
}

} // namespace
} // namespace pce
