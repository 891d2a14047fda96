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
// the old loop's stall, argmax and round count, and the dl and sva verdicts
// must agree.

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

std::vector<dl::StallStation> plain_stations(const sva::TokenFlowGraph& g) {
    std::vector<dl::StallStation> out;
    for (const auto& s : g.stations) {
        out.push_back({s.ring, s.sb, s.peer_sb, s.away, s.provisioned});
    }
    return out;
}

bool same_station(const dl::StallStation& a, const dl::StallStation& b) {
    return a.ring == b.ring && a.sb == b.sb && a.peer_sb == b.peer_sb &&
           a.away == b.away && a.provisioned == b.provisioned;
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

    if (!g.ok()) return;
    ASSERT_EQ(now.size(), 1u);
    EXPECT_EQ(rules.ok, now[0].verdict == sva::Verdict::kProven)
        << "dl and sva-deadlock verdicts disagree";
    const std::vector<dl::StallStation> nodes = dl::stall_stations(spec);
    const std::vector<dl::StallStation> stations = plain_stations(g);
    ASSERT_EQ(nodes.size(), stations.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        EXPECT_TRUE(same_station(nodes[i], stations[i])) << "station " << i;
    }
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
