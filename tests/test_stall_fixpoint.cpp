// The shared transitive-stall kernel (deadlock/fixpoint.hpp) against the two
// loops it replaced (tests/deadlock_oracle.hpp), at scale:
//
//  * named specs, lint and sva fixtures, the st_topo shape matrix up to 1024
//    SBs, and the checked-in ring-of-rings specs;
//  * 2000 seeded hold/recycle mutations of specs with at most 36 SBs, both
//    converging and diverging.
//
// On every case dl::check_rules must match the old O(nodes^2) loop (verdict,
// advisories, stall bounds when ok), sva-deadlock must match the old
// coupling-list pass obligation for obligation, the kernel must reproduce
// the old loop's stall, argmax and round count, the dl and sva verdicts
// must agree, and lint's recycle-feasibility must flag exactly the stations
// whose provisioned wait falls short of the token absence.

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "deadlock/fixpoint.hpp"
#include "deadlock/rules.hpp"
#include "deadlock_oracle.hpp"
#include "lint/fixtures.hpp"
#include "lint/lint.hpp"
#include "sim/random.hpp"
#include "sva/fixtures.hpp"
#include "sva/graph.hpp"
#include "sva/passes.hpp"
#include "sva/spec_text.hpp"
#include "system/testbenches.hpp"
#include "topo/topo.hpp"

namespace {

using namespace st;

constexpr const char* kDataDir = ST_TESTS_DATA_DIR;

sys::SocSpec generated(topo::Shape shape, std::size_t sbs,
                       std::uint64_t seed) {
    topo::Options o;
    o.shape = shape;
    o.sbs = sbs;
    o.seed = seed;
    return sva::to_spec(topo::generate(o));
}

/// The ring nodes lint's recycle-feasibility flags, the stations dl's
/// advisories name, and the stations with `provisioned < away` must be the
/// same list: one schedule model read three ways. Lint words a multi-ring
/// member "node in SB" where dl::station_locus says "member SB".
void expect_schedule_agreement(const sys::SocSpec& spec) {
    lint::LintReport lr;
    lint::check_recycle_feasibility(spec, lr);
    std::vector<std::string> flagged;
    for (const auto& d : lr.for_rule("recycle-feasibility")) {
        std::string locus = d.locus;
        const std::size_t at = locus.find("' node in SB '");
        if (locus.rfind("multi-ring '", 0) == 0 && at != std::string::npos) {
            locus.replace(at, 14, "' member SB '");
        }
        flagged.push_back(locus);
    }

    std::vector<std::string> advised;
    for (const auto& v : dl::check_rules(spec).violations) {
        const std::size_t at = v.find(": provisioned wait ");
        if (at != std::string::npos) advised.push_back(v.substr(0, at));
    }

    const std::vector<dl::StallStation> stations = dl::stall_stations(spec);
    std::vector<std::string> late;
    for (std::size_t i = 0; i < stations.size(); ++i) {
        if (stations[i].provisioned < stations[i].away &&
            !dl::repeats_member(spec, stations, i)) {
            late.push_back(dl::station_locus(spec, stations[i]));
        }
    }
    EXPECT_EQ(flagged, late) << "lint recycle-feasibility vs the stations";
    EXPECT_EQ(advised, late) << "dl advisories vs the stations";
}

/// Tallies over one differential run, so the corpus can be checked to
/// exercise both verdicts.
struct Tally {
    std::size_t converged = 0;
    std::size_t diverged = 0;
};

/// Every comparison the kernel owes the old loops on one spec.
void expect_matches_oracles(const std::string& name, const sys::SocSpec& spec,
                            Tally* tally = nullptr) {
    SCOPED_TRACE(name);
    const sva::TokenFlowGraph g = sva::lower(spec);

    const auto now = sva::pass_deadlock(g);
    const auto was = oracle::pass_deadlock(g);
    ASSERT_EQ(now.size(), was.size());
    for (std::size_t i = 0; i < now.size(); ++i) {
        EXPECT_EQ(now[i].pass, was[i].pass);
        EXPECT_EQ(now[i].locus, was[i].locus);
        EXPECT_EQ(now[i].verdict, was[i].verdict);
        EXPECT_EQ(now[i].evidence, was[i].evidence);
        ASSERT_EQ(now[i].witness.has_value(), was[i].witness.has_value());
        if (now[i].witness) {
            EXPECT_EQ(now[i].witness->describe(), was[i].witness->describe());
        }
    }

    if (g.ok()) {
        const dl::StallFixpoint fp =
            dl::stall_fixpoint(g.stations, g.sbs.size());
        const dl::StallFixpoint old = oracle::coupling_fixpoint(g);
        EXPECT_EQ(fp.stall, old.stall);
        EXPECT_EQ(fp.pred, old.pred);
        EXPECT_EQ(fp.rounds, old.rounds);
        EXPECT_EQ(fp.diverged, old.diverged);
        EXPECT_EQ(fp.still_growing, old.still_growing);
        EXPECT_LE(fp.rounds, g.stations.size() + 2);
    }

    // dl::check_rules, like lint's deadlock pass, needs in-range indices.
    lint::LintReport endpoints;
    lint::check_endpoints(spec, endpoints);
    if (!endpoints.ok()) return;

    const dl::RuleReport rules = dl::check_rules(spec);
    const oracle::LegacyRules legacy = oracle::check_rules(spec);
    EXPECT_EQ(rules.ok, legacy.report.ok);
    if (rules.ok) {
        EXPECT_EQ(rules.stall_bound, legacy.report.stall_bound);
        const std::vector<dl::StallStation> nodes = dl::stall_stations(spec);
        EXPECT_EQ(dl::stall_fixpoint(nodes, spec.sbs.size()).stall,
                  legacy.stall);
    }
    if (legacy.skipped_multi_ring_advisories == 0) {
        EXPECT_EQ(rules.violations, legacy.report.violations);
    } else {
        // Specs the old loop crashed on: its two-node-ring advisories come
        // first, then one per under-provisioned multi-ring member.
        const auto& old_v = legacy.report.violations;
        ASSERT_GT(rules.violations.size(), old_v.size());
        for (std::size_t i = 0; i < rules.violations.size(); ++i) {
            if (i < old_v.size()) {
                EXPECT_EQ(rules.violations[i], old_v[i]);
            } else {
                EXPECT_EQ(rules.violations[i].rfind("multi-ring '", 0), 0u)
                    << rules.violations[i];
            }
        }
    }

    expect_schedule_agreement(spec);

    if (!g.ok()) return;
    ASSERT_EQ(now.size(), 1u);
    EXPECT_EQ(rules.ok, now[0].verdict == sva::Verdict::kProven)
        << "dl and sva-deadlock verdicts disagree";
    if (tally) ++(rules.ok ? tally->converged : tally->diverged);
}

TEST(StallFixpointDiff, NamedSpecsAndFixtures) {
    for (const auto& name : sys::named_specs()) {
        expect_matches_oracles(name, sys::make_named_spec(name));
    }
    for (const auto& f : lint::fixture_catalog()) {
        expect_matches_oracles(std::string("lint:") + f.name,
                               lint::make_fixture(f.name));
    }
    for (const auto& f : sva::fixture_catalog()) {
        expect_matches_oracles(std::string("sva:") + f.name,
                               sva::make_fixture(f.name));
    }
    for (const char* file : {"ring_of_rings_64", "ring_of_rings_256"}) {
        expect_matches_oracles(
            file, sva::to_spec(sva::load_spec_file(std::string(kDataDir) +
                                                   "/" + file + ".stspec")));
    }
}

TEST(StallFixpointDiff, TopoMatrixUpTo1024) {
    for (const topo::Shape shape :
         {topo::Shape::kMesh, topo::Shape::kTorus, topo::Shape::kStar,
          topo::Shape::kHierRing}) {
        for (const std::size_t sbs : {64u, 256u, 1024u}) {
            expect_matches_oracles(std::string(topo::shape_name(shape)) +
                                       "-" + std::to_string(sbs),
                                   generated(shape, sbs, 42));
        }
    }
}

/// Specs of at most 36 SBs to mutate: the named testbenches and every
/// st_topo shape at small sizes (the old dl loop costs O(sbs * nodes^3)
/// on a diverging spec, so larger bases would dominate the suite's run
/// time).
const std::vector<sys::SocSpec>& mutation_bases() {
    static const std::vector<sys::SocSpec> bases = [] {
        std::vector<sys::SocSpec> out;
        for (const auto& name : sys::named_specs()) {
            out.push_back(sys::make_named_spec(name));
        }
        for (const std::size_t sbs : {4u, 6u, 9u, 12u, 16u, 36u}) {
            out.push_back(generated(topo::Shape::kMesh, sbs, sbs));
            out.push_back(generated(topo::Shape::kTorus, sbs, sbs + 1));
            out.push_back(generated(topo::Shape::kHierRing, sbs, sbs + 2));
        }
        for (const std::size_t sbs : {3u, 5u, 9u, 17u, 36u}) {
            out.push_back(generated(topo::Shape::kStar, sbs, sbs));
        }
        for (const auto& spec : out) {
            if (spec.sbs.size() > 36) throw std::logic_error("base too big");
        }
        return out;
    }();
    return bases;
}

/// Redraw a random share of the ring nodes' recycle (down to 0, up to a
/// quarter above the provisioned value) and some holds.
sys::SocSpec mutate(sys::SocSpec spec, std::uint64_t seed) {
    sim::Rng rng(seed);
    const double share = rng.next_double();
    const auto tweak = [&](core::TokenNode::Params& node) {
        if (rng.next_double() >= share) return;
        node.recycle = static_cast<std::uint32_t>(
            rng.next_below(node.recycle + node.recycle / 4 + 2));
        if (rng.next_below(4) == 0) {
            node.hold = static_cast<std::uint32_t>(rng.next_in(1, node.hold + 2));
        }
    };
    for (auto& ring : spec.rings) {
        tweak(ring.node_a);
        tweak(ring.node_b);
    }
    for (auto& mr : spec.multi_rings) {
        for (auto& m : mr.members) tweak(m.node);
    }
    return spec;
}

constexpr std::size_t kShards = 8;
constexpr std::size_t kMutationsPerShard = 250;

class StallFixpointMutations : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StallFixpointMutations, MatchOracles) {
    const auto& bases = mutation_bases();
    Tally tally;
    for (std::size_t k = 0; k < kMutationsPerShard; ++k) {
        const std::size_t i = GetParam() * kMutationsPerShard + k;
        const sys::SocSpec spec = mutate(bases[i % bases.size()], i + 1);
        expect_matches_oracles("mutation " + std::to_string(i), spec, &tally);
        if (HasFatalFailure()) return;
    }
    // Both verdicts are exercised in every shard.
    EXPECT_GT(tally.converged, kMutationsPerShard / 10);
    EXPECT_GT(tally.diverged, kMutationsPerShard / 10);
}

INSTANTIATE_TEST_SUITE_P(Shards, StallFixpointMutations,
                         ::testing::Range<std::size_t>(0, kShards));

// --- channel timing ----------------------------------------------------------

/// A 3-member bus whose only channel skips a member: 0 -> 2 crosses hops
/// 0 and 1 (600 + 700 ps), not one hop.
sys::SocSpec skip_member_bus(sim::Time stage_delay) {
    sys::BusOptions o;
    o.size = 3;
    sys::SocSpec spec = sys::make_bus_spec(o);
    auto& members = spec.multi_rings[0].members;
    members[0].hop_delay = 600;
    members[1].hop_delay = 700;
    members[2].hop_delay = 800;
    sys::ChannelSpec ch = spec.channels[0];
    ch.name = "skip";
    ch.from_sb = members[0].sb;
    ch.to_sb = members[2].sb;
    ch.fifo.stage_delay = stage_delay;
    ch.fifo.head_req_delay = 100;
    ch.fifo.head_ack_delay = 100;
    spec.channels = {ch};
    return spec;
}

TEST(ChannelTiming, MultiRingFlightSumsTheHopsForLintAndSva) {
    // ripple = depth * stage + 2 * (100 + 100) ps against a 1300 ps flight:
    // 1000 ps clears it (a one-hop flight of 600 ps would not), 1600 ps
    // does not.
    for (const sim::Time stage : {200u, 400u}) {
        const sys::SocSpec spec = skip_member_bus(stage);
        ASSERT_EQ(spec.channels[0].fifo.depth, 3u);
        const sim::Time ripple = 3 * stage + 400;
        const auto t = dl::channel_timing(spec, spec.channels[0]);
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(t->flight, 1300u);
        EXPECT_EQ(t->ripple, ripple);

        lint::LintReport lr;
        lint::check_fifo_provisioning(spec, lr);
        const auto warnings = lr.for_rule("fifo-head-visibility");
        if (ripple <= 1300) {
            EXPECT_TRUE(warnings.empty());
        } else {
            ASSERT_EQ(warnings.size(), 1u);
            EXPECT_NE(warnings[0].message.find(sim::format_time(1300)),
                      std::string::npos)
                << warnings[0].message;
        }

        const auto obs = sva::pass_occupancy(sva::lower(spec));
        ASSERT_EQ(obs.size(), 1u);
        const std::string margin =
            "worst head-visibility margin " +
            std::to_string(1300 - static_cast<std::int64_t>(ripple)) +
            " ps at channel 'skip'";
        EXPECT_NE(obs[0].evidence.find(margin), std::string::npos)
            << obs[0].evidence;
    }
}

// --- the kernel on its own -------------------------------------------------

TEST(StallFixpoint, SingleRingPairNeverCouples) {
    // Both stations of one ring, each with a large deficit: own-ring
    // stations never feed each other, so the fixpoint is just the deficits.
    const std::vector<dl::StallStation> st = {{0, 0, 1, 5000, 1000},
                                              {0, 1, 0, 7000, 1000}};
    const dl::StallFixpoint fp = dl::stall_fixpoint(st, 2);
    EXPECT_FALSE(fp.diverged);
    EXPECT_EQ(fp.stall, (std::vector<sim::Time>{4000, 6000}));
    EXPECT_EQ(fp.pred, (std::vector<std::size_t>{dl::kNoStation,
                                                 dl::kNoStation}));
    EXPECT_EQ(fp.rounds, 2u);
}

TEST(StallFixpoint, ArgmaxTakesTheLowestIndexOnTies) {
    // Station 0 (SB 0, ring 0) couples to SB 1's stations on rings 1 and 2,
    // which stall equally; station 3 on ring 0 is excluded.
    const std::vector<dl::StallStation> st = {{0, 0, 1, 100, 0},
                                              {1, 1, 2, 500, 0},
                                              {2, 1, 2, 500, 0},
                                              {0, 1, 0, 900, 0}};
    const dl::StallFixpoint fp = dl::stall_fixpoint(st, 3);
    EXPECT_FALSE(fp.diverged);
    EXPECT_EQ(fp.stall[0], 600u);
    EXPECT_EQ(fp.pred[0], 1u);
}

TEST(StallFixpoint, ZeroRecycleMesh1024DivergesWithinVPlus2Rounds) {
    sys::SocSpec spec = generated(topo::Shape::kMesh, 1024, 42);
    for (auto& ring : spec.rings) {
        ring.node_a.recycle = 0;
        ring.node_b.recycle = 0;
    }
    const std::vector<dl::StallStation> nodes = dl::stall_stations(spec);
    const dl::StallFixpoint fp = dl::stall_fixpoint(nodes, spec.sbs.size());
    EXPECT_TRUE(fp.diverged);
    EXPECT_LE(fp.rounds, nodes.size() + 2);
    EXPECT_NE(fp.still_growing, dl::kNoStation);

    EXPECT_TRUE(lint::lint(spec).has_error("deadlock-fixpoint"));
}

}  // namespace
