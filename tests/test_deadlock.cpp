#include <gtest/gtest.h>

#include "deadlock/rules.hpp"
#include "deadlock/waitfor.hpp"
#include "sva/spec_text.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "topo/topo.hpp"
#include "workload/traffic.hpp"

namespace st::dl {
namespace {

/// Three SBs in a directed cycle of rings, each holding one token and
/// starving the next: recycle registers far too small, guaranteeing a
/// cyclic wait.
sys::SocSpec starved_cycle_spec() {
    sys::SocSpec spec;
    for (int i = 0; i < 3; ++i) {
        sys::SbSpec sb;
        sb.name = "sb" + std::to_string(i);
        sb.clock.base_period = 1000;
        sb.clock.restart_delay = 200;
        sb.make_kernel = [i] {
            return std::make_unique<wl::TrafficKernel>(0x1000u + static_cast<unsigned>(i));
        };
        spec.sbs.push_back(sb);
    }
    for (std::size_t i = 0; i < 3; ++i) {
        sys::RingSpec ring;
        ring.name = "ring" + std::to_string(i);
        ring.sb_a = i;
        ring.sb_b = (i + 1) % 3;
        ring.node_a.hold = 4;
        ring.node_a.recycle = 1;  // hopelessly under-provisioned
        ring.node_a.initial_holder = true;
        ring.node_b.hold = 4;
        ring.node_b.recycle = 1;
        ring.node_b.initial_holder = false;
        ring.delay_ab = 900;
        ring.delay_ba = 900;
        spec.rings.push_back(ring);
    }
    return spec;
}

TEST(DeadlockRules, WellProvisionedConfigsPass) {
    EXPECT_TRUE(check_rules(sys::make_pair_spec()).ok);
    EXPECT_TRUE(check_rules(sys::make_triangle_spec()).ok);
    EXPECT_TRUE(check_rules(sys::make_chain_spec()).ok);
}

TEST(DeadlockRules, StarvedCycleIsRejected) {
    const auto report = check_rules(starved_cycle_spec());
    EXPECT_FALSE(report.ok);
    EXPECT_FALSE(report.violations.empty());
    EXPECT_NE(report.summary().find("DEADLOCK RISK"), std::string::npos);
}

TEST(DeadlockRules, SlackRestoresSafety) {
    auto spec = starved_cycle_spec();
    for (auto& ring : spec.rings) {
        ring.node_a.recycle = 40;
        ring.node_b.recycle = 40;
    }
    const auto report = check_rules(spec);
    EXPECT_TRUE(report.ok) << report.summary();
}

TEST(DeadlockRules, PairStallBoundsAreSmallAndBounded) {
    // A single-ring pair can never deadlock; the conservative alignment
    // term may report up to ~one clock period of possible stall per token
    // round trip, but the bound must converge and stay below a period.
    const auto report = check_rules(sys::make_pair_spec());
    ASSERT_EQ(report.stall_bound.size(), 2u);
    EXPECT_TRUE(report.ok);
    EXPECT_LE(report.stall_bound[0], 1000u);
    EXPECT_LE(report.stall_bound[1], 1000u);
}

TEST(DeadlockRules, UnderProvisionedMultiRingMembersAreNamed) {
    // Zero recycle on a ring-of-rings bus: the advisory loop once indexed
    // the two-node ring table with the bus's ring id and crashed.
    topo::Options o;
    o.shape = topo::Shape::kHierRing;
    o.sbs = 64;
    o.seed = 7;
    sys::SocSpec spec = sva::to_spec(topo::generate(o));
    auto& bus = spec.multi_rings.at(0);
    for (auto& m : bus.members) m.node.recycle = 0;

    const auto report = check_rules(spec);
    std::vector<std::string> on_bus;
    for (const auto& v : report.violations) {
        if (v.rfind("multi-ring '" + bus.name + "'", 0) == 0) {
            on_bus.push_back(v);
        }
    }
    // One advisory per member, not one per (member, other-member) station.
    ASSERT_EQ(on_bus.size(), bus.members.size());
    for (std::size_t i = 0; i < on_bus.size(); ++i) {
        const std::string locus = "multi-ring '" + bus.name + "' member SB '" +
                                  spec.sbs[bus.members[i].sb].name + "': ";
        EXPECT_EQ(on_bus[i].rfind(locus, 0), 0u) << on_bus[i];
    }
}

TEST(DeadlockRuntime, StarvedCycleActuallyDeadlocks) {
    sys::Soc soc(starved_cycle_spec());
    EXPECT_FALSE(soc.run_cycles(100, sim::ms(1)));  // goal never reached
    EXPECT_TRUE(soc.deadlocked());
    const auto diag = diagnose(soc);
    EXPECT_TRUE(diag.deadlocked);
    EXPECT_EQ(diag.cycle.size(), 3u);
    EXPECT_FALSE(diag.edges.empty());
    EXPECT_NE(diag.summary().find("DEADLOCK"), std::string::npos);
}

TEST(DeadlockRuntime, HealthySystemDiagnosesClean) {
    sys::Soc soc(sys::make_triangle_spec());
    soc.run_cycles(200, sim::ms(1));
    EXPECT_FALSE(soc.deadlocked());
    EXPECT_FALSE(diagnose(soc).deadlocked);
    EXPECT_EQ(diagnose(soc).summary(), "no deadlock");
}

/// Paper §5: "Whether or not deadlock occurs is deterministic; thus, no
/// detection or recovery methodology is needed." The same configuration
/// deadlocks identically — at the same local cycle counts — under every
/// delay perturbation.
TEST(DeadlockRuntime, DeadlockIsDeterministicAcrossPerturbations) {
    const auto spec = starved_cycle_spec();
    std::vector<std::uint64_t> nominal_cycles;
    {
        sys::Soc soc(spec);
        soc.run_cycles(100, sim::ms(1));
        ASSERT_TRUE(soc.deadlocked());
        for (std::size_t i = 0; i < soc.num_sbs(); ++i) {
            nominal_cycles.push_back(soc.wrapper(i).clock().cycles());
        }
    }
    for (const unsigned pct : {50u, 75u, 150u, 200u}) {
        auto cfg = sys::DelayConfig::nominal(spec);
        cfg.ring_ab_pct.assign(cfg.ring_ab_pct.size(), pct);
        cfg.ring_ba_pct.assign(cfg.ring_ba_pct.size(), pct);
        sys::Soc soc(sys::apply(spec, cfg));
        soc.run_cycles(100, sim::ms(1));
        EXPECT_TRUE(soc.deadlocked()) << pct;
        for (std::size_t i = 0; i < soc.num_sbs(); ++i) {
            EXPECT_EQ(soc.wrapper(i).clock().cycles(), nominal_cycles[i])
                << "SB " << i << " at " << pct << "%";
        }
    }
}

}  // namespace
}  // namespace st::dl
