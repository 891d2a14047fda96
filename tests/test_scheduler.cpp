#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "sim/wire.hpp"

namespace st::sim {
namespace {

TEST(Scheduler, StartsAtTimeZeroAndQuiescent) {
    Scheduler s;
    EXPECT_EQ(s.now(), 0u);
    EXPECT_TRUE(s.quiescent());
    EXPECT_EQ(s.next_event_time(), kNever);
    EXPECT_FALSE(s.step());
}

TEST(Scheduler, ExecutesEventsInTimeOrder) {
    Scheduler s;
    std::vector<int> order;
    s.schedule_after(30, [&] { order.push_back(3); });
    s.schedule_after(10, [&] { order.push_back(1); });
    s.schedule_after(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30u);
}

TEST(Scheduler, SameTimeOrderedByPriorityThenInsertion) {
    Scheduler s;
    std::vector<int> order;
    s.schedule_at(5, Priority::kMonitor, [&] { order.push_back(4); });
    s.schedule_at(5, Priority::kClockEdge, [&] { order.push_back(0); });
    s.schedule_at(5, Priority::kDefault, [&] { order.push_back(2); });
    s.schedule_at(5, Priority::kDefault, [&] { order.push_back(3); });
    s.schedule_at(5, Priority::kCommit, [&] { order.push_back(1); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, RejectsEventsInThePast) {
    Scheduler s;
    s.schedule_after(10, [] {});
    s.run();
    EXPECT_THROW(s.schedule_at(5, Priority::kDefault, [] {}),
                 std::logic_error);
}

TEST(Scheduler, RunUntilStopsAtBoundaryInclusive) {
    Scheduler s;
    int hits = 0;
    for (Time t = 10; t <= 100; t += 10) {
        s.schedule_at(t, Priority::kDefault, [&] { ++hits; });
    }
    EXPECT_EQ(s.run_until(50), 5u);
    EXPECT_EQ(hits, 5);
    EXPECT_EQ(s.now(), 50u);
    s.run();
    EXPECT_EQ(hits, 10);
}

TEST(Scheduler, RunUntilAdvancesTimeWhenQueueEmpty) {
    Scheduler s;
    s.run_until(1234);
    EXPECT_EQ(s.now(), 1234u);
}

TEST(Scheduler, EventsCanScheduleFurtherEvents) {
    Scheduler s;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5) s.schedule_after(7, recurse);
    };
    s.schedule_after(7, recurse);
    s.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(s.now(), 35u);
    EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Scheduler, RunHonorsMaxEvents) {
    Scheduler s;
    int hits = 0;
    for (int i = 0; i < 10; ++i) s.schedule_after(1 + i, [&] { ++hits; });
    EXPECT_EQ(s.run(3), 3u);
    EXPECT_EQ(hits, 3);
}

TEST(Wire, DeliversChangesToObserversOnce) {
    Scheduler s;
    Wire<int> w(s, 0);
    int calls = 0;
    int last = -1;
    w.observe([&](const int& v) {
        ++calls;
        last = v;
    });
    w.set(0);  // no change -> no notify
    EXPECT_EQ(calls, 0);
    w.set(7);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(last, 7);
}

TEST(Wire, DriveAppliesTransportDelay) {
    Scheduler s;
    Wire<int> w(s, 0);
    w.drive(5, 100);
    EXPECT_EQ(w.value(), 0);
    s.run();
    EXPECT_EQ(w.value(), 5);
    EXPECT_EQ(w.last_change(), 100u);
}

TEST(BitWire, EdgeCallbacksFireOnCorrectPolarity) {
    Scheduler s;
    BitWire b(s, false);
    int rises = 0;
    int falls = 0;
    b.on_rise([&] { ++rises; });
    b.on_fall([&] { ++falls; });
    b.toggle();
    b.toggle();
    b.toggle();
    EXPECT_EQ(rises, 2);
    EXPECT_EQ(falls, 1);
}

TEST(Time, FormatAndScaleHelpers) {
    EXPECT_EQ(ns(1), 1000u);
    EXPECT_EQ(us(1), 1000000u);
    EXPECT_EQ(scale_percent(1000, 50), 500u);
    EXPECT_EQ(scale_percent(1000, 200), 2000u);
    EXPECT_EQ(scale_percent(1000, 75), 750u);
    EXPECT_EQ(scale_percent(333, 150), 500u);  // rounds to nearest
    EXPECT_EQ(format_time(500), "500 ps");
    EXPECT_EQ(format_time(kNever), "never");
}

TEST(Scheduler, RaceAuditFlagsSameSlotSameActor) {
    Scheduler s;
    s.set_race_audit(true);
    int actor = 0;
    s.schedule_at(100, Priority::kDefault, EventTag{&actor, "first"},
                  [&] { actor = 1; });
    s.schedule_at(100, Priority::kDefault, EventTag{&actor, "second"},
                  [&] { actor = 2; });
    s.run();
    ASSERT_EQ(s.races().size(), 1u);
    EXPECT_EQ(s.races()[0].actor, &actor);
    EXPECT_EQ(s.races()[0].t, 100u);
    EXPECT_EQ(s.races()[0].first, "first");
    EXPECT_EQ(s.races()[0].second, "second");
}

TEST(Scheduler, RaceAuditCoversSameSlotTaggedSelfDelivery) {
    // An event that schedules *into its own (time, priority) slot* targeting
    // the same actor is ordered only by insertion sequence — exactly the
    // hidden ordering the audit exists to flag, even though the second event
    // did not exist when the slot began executing.
    Scheduler s;
    s.set_race_audit(true);
    int actor = 0;
    s.schedule_at(50, Priority::kDefault, EventTag{&actor, "deliver"}, [&] {
        s.schedule_at(50, Priority::kDefault, EventTag{&actor, "redeliver"},
                      [&] { actor = 2; });
        actor = 1;
    });
    s.run();
    EXPECT_EQ(actor, 2);
    ASSERT_EQ(s.races().size(), 1u);
    EXPECT_EQ(s.races()[0].first, "deliver");
    EXPECT_EQ(s.races()[0].second, "redeliver");
}

TEST(Scheduler, RaceAuditIgnoresDistinctSlotsAndActors) {
    Scheduler s;
    s.set_race_audit(true);
    int a = 0;
    int b = 0;
    // Same slot, different actors: fine.
    s.schedule_at(10, Priority::kDefault, EventTag{&a, "x"}, [] {});
    s.schedule_at(10, Priority::kDefault, EventTag{&b, "y"}, [] {});
    // Same actor, different priorities: deterministically ordered, fine.
    s.schedule_at(20, Priority::kCommit, EventTag{&a, "commit"}, [] {});
    s.schedule_at(20, Priority::kMonitor, EventTag{&a, "monitor"}, [] {});
    // Same actor, different times: fine.
    s.schedule_at(30, Priority::kDefault, EventTag{&a, "t30"}, [] {});
    s.schedule_at(31, Priority::kDefault, EventTag{&a, "t31"}, [] {});
    s.run();
    EXPECT_TRUE(s.races().empty());
}

TEST(Scheduler, InterceptorDropsOnlyTaggedEvents) {
    Scheduler s;
    int tagged = 0;
    int untagged = 0;
    s.set_interceptor([](const EventTag&, Time) { return false; });
    s.schedule_at(10, Priority::kDefault, EventTag{&tagged, "t"},
                  [&] { ++tagged; });
    s.schedule_at(10, Priority::kDefault, [&] { ++untagged; });
    s.run();
    EXPECT_EQ(tagged, 0);   // dropped: the kernel never ran its callback
    EXPECT_EQ(untagged, 1);  // untagged events cannot be faulted
    EXPECT_EQ(s.events_dropped(), 1u);
    EXPECT_EQ(s.events_executed(), 1u);
    EXPECT_EQ(s.now(), 10u);  // a dropped event still advances time
}

TEST(Scheduler, InterceptorSelectsByTag) {
    Scheduler s;
    std::vector<std::string> ran;
    s.set_interceptor([](const EventTag& tag, Time) {
        return std::string(tag.label) != "drop-me";
    });
    int actor = 0;
    s.schedule_at(1, Priority::kDefault, EventTag{&actor, "keep"},
                  [&] { ran.push_back("keep"); });
    s.schedule_at(2, Priority::kDefault, EventTag{&actor, "drop-me"},
                  [&] { ran.push_back("drop-me"); });
    s.schedule_at(3, Priority::kDefault, EventTag{&actor, "keep2"},
                  [&] { ran.push_back("keep2"); });
    s.run();
    EXPECT_EQ(ran, (std::vector<std::string>{"keep", "keep2"}));
    EXPECT_EQ(s.events_dropped(), 1u);
}

// --- event pool + SmallFn callback storage (kernel hot-path overhaul) ---

TEST(Scheduler, EventPoolRecyclesRecordsAcrossRuns) {
    // A long self-rescheduling chain keeps the queue at depth 1; a pool that
    // recycles records must never grow past a single slab no matter how many
    // events execute.
    Scheduler s;
    std::uint64_t left = 10'000;
    struct Hop {
        Scheduler* s;
        std::uint64_t* left;
        void operator()() const {
            if (--*left > 0) s->schedule_after(1, Hop{s, left});
        }
    };
    s.schedule_after(1, Hop{&s, &left});
    s.run();
    EXPECT_EQ(left, 0u);
    EXPECT_EQ(s.events_executed(), 10'000u);
    EXPECT_LE(s.pool_capacity(), 64u);

    // Reuse continues across separate run_until() calls on the same kernel.
    const auto cap = s.pool_capacity();
    for (int round = 0; round < 100; ++round) {
        s.schedule_after(1, [] {});
        s.run();
    }
    EXPECT_EQ(s.pool_capacity(), cap);
}

TEST(Scheduler, LargeCaptureCallbacksSpillToHeapCorrectly) {
    // Captures past SmallFn's inline buffer take the heap path; behaviour
    // must be identical.
    Scheduler s;
    std::array<std::uint64_t, 16> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 3 + 1;
    std::uint64_t sum = 0;
    s.schedule_after(5, [payload, &sum] {
        for (const auto v : payload) sum += v;
    });
    s.run();
    std::uint64_t want = 0;
    for (const auto v : payload) want += v;
    EXPECT_EQ(sum, want);
}

TEST(Scheduler, AcceptsMoveOnlyCallbacks) {
    // std::function required copyable callables; the kernel's move-only
    // callback does not, so captures can own resources directly.
    Scheduler s;
    int got = 0;
    s.schedule_after(1, [p = std::make_unique<int>(7), &got] { got = *p; });
    s.run();
    EXPECT_EQ(got, 7);
}

TEST(Scheduler, DestroysCallbackStateAfterExecution) {
    Scheduler s;
    const auto token = std::make_shared<int>(1);
    s.schedule_after(1, [token] {});
    EXPECT_EQ(token.use_count(), 2);
    s.run();
    EXPECT_EQ(token.use_count(), 1);  // pool slot must not pin the capture
}

TEST(Scheduler, InterceptorStorageStaysInlineInSteadyState) {
    // The fault-injection surface is consulted on every tagged event, so
    // its storage must be the same small-buffer machinery as the event
    // callbacks — an injector-shaped capture (object pointer + a couple of
    // words of plan state) may never spill to the heap. The static_assert
    // turns a capture grown past the budget into a build error instead of
    // a silent per-campaign allocation.
    Scheduler s;
    std::uint64_t consulted = 0;
    std::uint64_t plan[3] = {0, 0, 0};  // never matches a real timestamp
    auto plan_fn = [&consulted, &plan](const EventTag&, Time t) {
        ++consulted;
        return t != plan[1];
    };
    static_assert(Scheduler::Interceptor::fits_inline<decltype(plan_fn)>(),
                  "injector-shaped interceptor captures must stay inline");
    Scheduler::Interceptor stored(std::move(plan_fn));
    EXPECT_TRUE(stored.is_inline());
    s.set_interceptor(std::move(stored));

    // Steady state: a long tagged self-rescheduling chain with the
    // interceptor armed recycles event records exactly like the untagged
    // chain — the pool's high-water mark stays flat across repeat runs, so
    // neither the callback nor the per-event interceptor consult allocates.
    int actor = 0;
    std::uint64_t left = 5'000;
    struct Hop {
        Scheduler* s;
        int* actor;
        std::uint64_t* left;
        void operator()() const {
            if (--*left > 0) {
                s->schedule_at(s->now() + 1, Priority::kDefault,
                               EventTag{actor, "hop"}, Hop{s, actor, left});
            }
        }
    };
    s.schedule_at(1, Priority::kDefault, EventTag{&actor, "hop"},
                  Hop{&s, &actor, &left});
    s.run();
    EXPECT_EQ(left, 0u);
    EXPECT_EQ(consulted, 5'000u);
    EXPECT_EQ(s.events_dropped(), 0u);
    const auto cap = s.pool_capacity();
    EXPECT_LE(cap, 64u);
    for (int round = 0; round < 50; ++round) {
        std::uint64_t more = 100;
        s.schedule_at(s.now() + 1, Priority::kDefault,
                      EventTag{&actor, "hop"}, Hop{&s, &actor, &more});
        s.run();
    }
    EXPECT_EQ(s.pool_capacity(), cap);
}

TEST(Scheduler, DroppedEventsReleaseTheirCallbacks) {
    Scheduler s;
    int actor = 0;
    const auto token = std::make_shared<int>(1);
    s.set_interceptor([](const EventTag& tag, Time) {
        return std::string(tag.label) != "drop-me";
    });
    s.schedule_at(1, Priority::kDefault, EventTag{&actor, "drop-me"},
                  [token] {});
    s.run();
    EXPECT_EQ(s.events_dropped(), 1u);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Scheduler, ThrowingCallbackReturnsItsRecord) {
    // Callbacks run in place in their pooled record; a throw must still
    // recycle the record (and destroy the capture), or every failed event
    // would leak one pool slot.
    Scheduler s;
    const auto token = std::make_shared<int>(1);
    s.schedule_after(1, [] {});
    s.run();
    const auto cap = s.pool_capacity();
    for (int i = 0; i < 1000; ++i) {
        s.schedule_after(1, [token] { throw std::runtime_error("boom"); });
        EXPECT_THROW(s.step(), std::runtime_error);
        EXPECT_TRUE(s.quiescent());
    }
    EXPECT_EQ(s.pool_capacity(), cap);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(s.events_executed(), 1001u);

    bool ran = false;
    s.schedule_after(1, [&ran] { ran = true; });
    s.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(s.pool_capacity(), cap);
}

/// Copies and moves of a MoveCounter, and their values when it ran.
struct Counts {
    int copies = 0;
    int moves = 0;
    int copies_at_run = -1;
    int moves_at_run = -1;
};

struct MoveCounter {
    Counts* c;
    explicit MoveCounter(Counts* counts) : c(counts) {}
    MoveCounter(const MoveCounter& o) : c(o.c) { ++c->copies; }
    MoveCounter(MoveCounter&& o) noexcept : c(o.c) { ++c->moves; }
    void operator()() const {
        c->copies_at_run = c->copies;
        c->moves_at_run = c->moves;
    }
};

TEST(Scheduler, CallbacksAreBuiltInPlaceAndNeverRelocated) {
    // schedule_at constructs the callable directly in its event record and
    // step runs it there: an lvalue is copied once and never moved, an
    // rvalue is moved once (its construction in the record) and no more.
    static_assert(Scheduler::Callback::fits_inline<MoveCounter>());
    Scheduler s;
    Counts lv;
    const MoveCounter lvalue(&lv);
    s.schedule_at(1, Priority::kDefault, lvalue);
    s.run();
    EXPECT_EQ(lv.copies_at_run, 1);
    EXPECT_EQ(lv.moves_at_run, 0);

    Counts rv;
    s.schedule_at(2, Priority::kDefault, EventTag{&s, "counter"},
                  MoveCounter(&rv));
    s.run();
    EXPECT_EQ(rv.copies_at_run, 0);
    EXPECT_EQ(rv.moves_at_run, 1);
}

TEST(Scheduler, StoredCallbacksAreMovedInWhole) {
    // A prebuilt Callback is moved into the record as it is, not wrapped in
    // a second SmallFn: one relocation, then it runs in place.
    Scheduler s;
    Counts c;
    Scheduler::Callback stored = MoveCounter(&c);
    c.moves = 0;
    s.schedule_at(1, Priority::kDefault, std::move(stored));
    EXPECT_FALSE(stored);  // NOLINT(bugprone-use-after-move)
    s.run();
    EXPECT_EQ(c.copies_at_run, 0);
    EXPECT_EQ(c.moves_at_run, 1);
}

TEST(Scheduler, StepUntilExecutesOnlyUpToTheLimit) {
    Scheduler s;
    std::vector<Time> ran;
    for (const Time t : {Time{10}, Time{20}, Time{20}, Time{30}}) {
        s.schedule_at(t, Priority::kDefault, [&ran, &s] {
            ran.push_back(s.now());
        });
    }
    EXPECT_FALSE(s.step_until(5));
    EXPECT_EQ(s.now(), 0u);
    EXPECT_TRUE(s.step_until(10));
    EXPECT_TRUE(s.step_until(20));
    EXPECT_TRUE(s.step_until(20));
    EXPECT_FALSE(s.step_until(25));
    EXPECT_EQ(s.now(), 20u);
    EXPECT_EQ(s.next_event_time(), 30u);
    EXPECT_TRUE(s.step_until(kNever));
    EXPECT_FALSE(s.step_until(kNever));
    EXPECT_EQ(ran, (std::vector<Time>{10, 20, 20, 30}));
}

TEST(Rng, DeterministicFromSeedAndUnbiasedBounds) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());

    Rng c(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = c.next_in(3, 9);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 9u);
    }
    EXPECT_EQ(c.next_below(0), 0u);
}

}  // namespace
}  // namespace st::sim
