// Pins the kernel's event stream on three reference runs. Event counts feed
// the livelock watchdog (CampaignConfig::max_events), RunReport::events and
// checkpoint bytes, and the snapshot image covers every component's state,
// so a scheduler change that reorders, adds or drops an event moves one of
// these constants. The constants were recorded on the kernel that moved
// each callback out of its record before invoking it; the in-place kernel
// must reproduce them exactly.

#include <gtest/gtest.h>

#include <cstdint>

#include "fuzz/campaign.hpp"
#include "fuzz/case_exec.hpp"
#include "fuzz/injector.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sva/spec_text.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "topo/topo.hpp"

namespace {

using namespace st;

struct StreamPin {
    std::uint64_t executed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t image_fnv = 0;
};

/// Run `soc` to `cycles` through the bounded cycle loop, drain the current
/// slot and read the pinned figures off the kernel and the image.
StreamPin run_and_pin(sys::Soc& soc, std::uint64_t cycles) {
    const sim::Time deadline = fuzz::case_deadline(
        fuzz::max_effective_period(soc.spec()), cycles);
    bool budget_expired = false;
    fuzz::run_bounded(soc, cycles, deadline, 2'000'000, budget_expired);
    EXPECT_FALSE(budget_expired);
    soc.settle();
    const auto& sched = soc.scheduler();
    return StreamPin{sched.events_executed(), sched.events_dropped(),
                     soc.state_digest()};
}

TEST(EventStream, PairNominal100Cycles) {
    sys::Soc soc(sys::make_named_spec("pair"));
    const StreamPin p = run_and_pin(soc, 100);
    EXPECT_EQ(p.executed, 1155u);
    EXPECT_EQ(p.dropped, 0u);
    EXPECT_EQ(p.image_fnv, 17382671515026041920ull);
}

TEST(EventStream, PairOneSeededTokenDrop) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 100;
    cfg.classes = {fuzz::FaultClass::kTokenDropWire};
    cfg.max_faults = 1;
    const fuzz::Campaign campaign(cfg);
    sim::Rng rng(11);
    const fuzz::FuzzCase c = campaign.random_case(rng);
    ASSERT_EQ(c.faults.size(), 1u);

    sys::Soc soc(sys::apply(campaign.spec(), c.delays));
    fuzz::Injector injector(soc, c.faults);
    const StreamPin p = run_and_pin(soc, 100);
    EXPECT_EQ(p.executed, 225u);
    EXPECT_EQ(p.dropped, 1u);
    EXPECT_EQ(p.image_fnv, 14548191985336630867ull);
}

TEST(EventStream, Mesh64Nominal60Cycles) {
    topo::Options o;
    o.shape = topo::Shape::kMesh;
    o.sbs = 64;
    o.seed = 7;
    sys::Soc soc(sva::to_spec(topo::generate(o)));
    const StreamPin p = run_and_pin(soc, 60);
    EXPECT_EQ(p.executed, 23515u);
    EXPECT_EQ(p.dropped, 0u);
    EXPECT_EQ(p.image_fnv, 7655440999584949680ull);
}

TEST(EventStream, BoundedRunRanksDeadlineAboveBudget) {
    // The budget is checked only while an event is due, so a run whose next
    // event lies past the deadline stops on the deadline even at budget 0.
    const auto spec = sys::make_named_spec("pair");
    const sim::Time deadline =
        fuzz::case_deadline(fuzz::max_effective_period(spec), 100);
    sys::Soc soc(spec);
    bool budget_expired = false;
    EXPECT_FALSE(fuzz::run_bounded(soc, 100, deadline, 0, budget_expired));
    EXPECT_TRUE(budget_expired);
    EXPECT_EQ(soc.scheduler().events_executed(), 0u);

    ASSERT_TRUE(soc.run_cycles(5, deadline));
    soc.settle();
    const auto& sched = soc.scheduler();
    ASSERT_GT(sched.next_event_time(), sched.now());
    const std::uint64_t executed = sched.events_executed();
    EXPECT_FALSE(
        fuzz::run_bounded(soc, 100, sched.now(), 0, budget_expired));
    EXPECT_FALSE(budget_expired);
    EXPECT_EQ(sched.events_executed(), executed);
}

}  // namespace
