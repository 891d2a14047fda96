// Differential suite for the campaign engine: every case runs on a
// persistent gang::Lane (rewind, inject, apply_live, run bounded,
// classify), and must be *indistinguishable* from the fresh-elaboration
// oracle (tests/case_oracle.hpp) — bit-identical campaign summaries at
// every jobs value and shard split, identical per-case reports (outcome,
// detail locus, event counts) in identical on_run order, and reports that
// do not depend on what the lane ran before.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "case_oracle.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/injector.hpp"
#include "fuzz/shrink.hpp"
#include "gang/program.hpp"
#include "sim/random.hpp"
#include "sva/spec_text.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"

namespace {

using namespace st;

using Observed = std::vector<std::pair<std::size_t, fuzz::RunReport>>;

std::string read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

sys::SocSpec fixture_spec(const char* file) {
    const std::string text =
        read_file(std::string(ST_TESTS_DATA_DIR) + "/" + file);
    return sva::to_spec(sva::parse_spec_text(text));
}

/// Campaign::run at `jobs`, recording the on_run stream.
fuzz::CampaignSummary run_engine(const fuzz::Campaign& campaign,
                                 std::uint64_t runs, std::uint64_t seed,
                                 std::size_t jobs, Observed* seen = nullptr,
                                 runner::Shard shard = {}) {
    fuzz::CampaignControl ctl;
    ctl.shard = shard;
    return campaign.run(
        runs, seed,
        [seen](std::size_t i, const fuzz::FuzzCase&,
               const fuzz::RunReport& r) {
            if (seen != nullptr) seen->emplace_back(i, r);
        },
        jobs, ctl);
}

/// The core differential: the summary — counters, retained failure cases
/// with their delay vectors, faults, details and loci — and the per-case
/// on_run stream must equal the oracle's at every jobs value.
void expect_engine_matches_oracle(
    const fuzz::Campaign& campaign, std::uint64_t runs, std::uint64_t seed,
    oracle::Warmup warmup = oracle::Warmup::kRestore) {
    Observed expected;
    const auto reference = oracle::run_campaign(
        campaign, runs, seed, {}, warmup,
        [&](std::size_t i, const fuzz::FuzzCase&, const fuzz::RunReport& r) {
            expected.emplace_back(i, r);
        });
    EXPECT_EQ(reference.runs, runs);
    for (const std::size_t jobs : {1, 2, 4}) {
        Observed seen;
        const auto s = run_engine(campaign, runs, seed, jobs, &seen);
        EXPECT_TRUE(s == reference) << "summary diverged at jobs=" << jobs;
        ASSERT_EQ(seen.size(), expected.size()) << "jobs=" << jobs;
        for (std::size_t k = 0; k < seen.size(); ++k) {
            EXPECT_EQ(seen[k].first, expected[k].first);
            EXPECT_TRUE(seen[k].second == expected[k].second)
                << "jobs=" << jobs << " case " << seen[k].first << ": "
                << seen[k].second.detail << " vs "
                << expected[k].second.detail;
        }
    }
}

std::vector<fuzz::FaultClass> classes_for(const std::string& spec) {
    // The bus spec's multi-ring rejects ring-wire fault classes (the
    // Injector throws); exercise the FIFO/restart classes there and the
    // full set everywhere else.
    return spec == "bus" ? std::vector<fuzz::FaultClass>{
                               fuzz::FaultClass::kFifoStall,
                               fuzz::FaultClass::kRestartGlitch}
                         : fuzz::all_fault_classes();
}

// --- shipped specs, fault-free and faulted -------------------------------

TEST(GangDifferential, ShippedSpecsFaultFree) {
    for (const auto& name : sys::named_specs()) {
        SCOPED_TRACE(name);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = name;
        cfg.cycles = 60;
        const fuzz::Campaign campaign(cfg);
        expect_engine_matches_oracle(campaign, 18, 17);
    }
}

TEST(GangDifferential, ShippedSpecsAllFaultClasses) {
    for (const auto& name : sys::named_specs()) {
        SCOPED_TRACE(name);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = name;
        cfg.cycles = 60;
        cfg.classes = classes_for(name);
        cfg.max_faults = 2;
        const fuzz::Campaign campaign(cfg);
        expect_engine_matches_oracle(campaign, 18, 29);
    }
}

// The engine always rewinds to the shared warm-up snapshot; the oracle
// either restores that snapshot into a fresh Soc or re-simulates the
// prefix. All three must agree.
TEST(GangDifferential, WarmupForkAndNonFork) {
    for (const auto warmup :
         {oracle::Warmup::kRestore, oracle::Warmup::kResimulate}) {
        SCOPED_TRACE(warmup == oracle::Warmup::kRestore ? "restore"
                                                        : "re-simulate");
        fuzz::CampaignConfig cfg;
        cfg.spec_name = "pair";
        cfg.cycles = 80;
        cfg.warmup_cycles = 30;
        cfg.classes = fuzz::all_fault_classes();
        const fuzz::Campaign campaign(cfg);
        expect_engine_matches_oracle(campaign, 24, 5, warmup);
    }
}

// Batch (offline diff) classification: the lane runs without a checker
// and diffs the capture at the end.
TEST(GangDifferential, NoStreamingMode) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "triangle";
    cfg.cycles = 60;
    cfg.streaming = false;
    cfg.classes = fuzz::all_fault_classes();
    const fuzz::Campaign campaign(cfg);
    expect_engine_matches_oracle(campaign, 16, 3);
}

// Warm-up prefix with batch classification: the lane rewinds to the shared
// prefix with no checker attached and diffs the capture — prefix included —
// at the end, as the oracle's fresh Soc does under either prefix variant.
TEST(GangDifferential, WarmupWithoutStreaming) {
    for (const auto warmup :
         {oracle::Warmup::kRestore, oracle::Warmup::kResimulate}) {
        SCOPED_TRACE(warmup == oracle::Warmup::kRestore ? "restore"
                                                        : "re-simulate");
        fuzz::CampaignConfig cfg;
        cfg.spec_name = "triangle";
        cfg.cycles = 80;
        cfg.warmup_cycles = 30;
        cfg.streaming = false;
        cfg.classes = fuzz::all_fault_classes();
        const fuzz::Campaign campaign(cfg);
        expect_engine_matches_oracle(campaign, 16, 41, warmup);
    }
}

// --- NoC-scale fixture specs ---------------------------------------------

TEST(GangDifferential, TopoFixtureSpecs) {
    for (const char* file : {"mesh_8x8.stspec", "star_64.stspec"}) {
        SCOPED_TRACE(file);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = file;
        cfg.cycles = 50;
        const fuzz::Campaign campaign(cfg, fixture_spec(file));
        const auto reference = oracle::run_campaign(campaign, 6, 11);
        EXPECT_EQ(reference.by_outcome[0], 6u)
            << "synchro-token fixture must be delay-insensitive";
        for (const std::size_t jobs : {1, 2}) {
            EXPECT_TRUE(run_engine(campaign, 6, 11, jobs) == reference)
                << "jobs=" << jobs;
        }
    }
}

// Faulted cases on the 64-SB fixtures: every fault class lands on a lane
// whose previous case left ring, FIFO and clock state far from nominal.
TEST(GangDifferential, TopoFixtureSpecsAllFaultClasses) {
    for (const char* file :
         {"mesh_8x8.stspec", "star_64.stspec", "ring_of_rings_64.stspec"}) {
        SCOPED_TRACE(file);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = file;
        cfg.cycles = 40;
        cfg.classes = fuzz::all_fault_classes();
        const fuzz::Campaign campaign(cfg, fixture_spec(file));
        expect_engine_matches_oracle(campaign, 6, 19);
    }
}

// --- sharding / on_run order ---------------------------------------------

// Shard summaries produced by the engine merge to the oracle's
// single-process summary, and each shard equals the oracle's shard.
TEST(GangDifferential, ShardedGangMergesToScalarWhole) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 60;
    cfg.classes = fuzz::all_fault_classes();
    const fuzz::Campaign campaign(cfg);
    const auto whole = oracle::run_campaign(campaign, 30, 7);

    std::vector<fuzz::CampaignSummary> parts;
    for (std::uint64_t i = 0; i < 3; ++i) {
        const runner::Shard shard{i, 3};
        parts.push_back(run_engine(campaign, 30, 7, 2, nullptr, shard));
        EXPECT_TRUE(parts.back() == oracle::run_campaign(campaign, 30, 7,
                                                         shard))
            << "shard " << i;
    }
    EXPECT_TRUE(fuzz::merge_shards(parts) == whole);
}

// The on_run observation stream (global index, report) must be the
// oracle's, in the same order, at every jobs value.
TEST(GangDifferential, OnRunSequenceMatchesScalar) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 60;
    cfg.classes = {fuzz::FaultClass::kTokenDropWire};
    const fuzz::Campaign campaign(cfg);

    Observed expected;
    oracle::run_campaign(
        campaign, 20, 13, {}, oracle::Warmup::kRestore,
        [&](std::size_t i, const fuzz::FuzzCase&, const fuzz::RunReport& r) {
            expected.emplace_back(i, r);
        });
    for (const std::size_t jobs : {1, 4}) {
        Observed seen;
        run_engine(campaign, 20, 13, jobs, &seen);
        EXPECT_TRUE(seen == expected) << "jobs=" << jobs;
    }
}

// --- lane reuse -----------------------------------------------------------

// A report must not depend on what the lane ran before: cases A, B, A on
// one CaseRunner give the oracle's report each time, for faulted,
// divergent and fault-free cases alike.
TEST(GangDifferential, LaneReuseABAMatchesOracle) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 80;
    cfg.classes = fuzz::all_fault_classes();
    const fuzz::Campaign campaign(cfg);

    // A = a case the oracle classifies divergent under faults (its checker
    // keeps running past the first mismatch); B = a 200% delay case with no
    // faults (its ring perturbation survives the rewind).
    sim::Rng rng(21);
    oracle::CaseOracle oracle(campaign);
    fuzz::FuzzCase a;
    bool found = false;
    for (int draws = 0; draws < 4000 && !found; ++draws) {
        a = campaign.random_case(rng);
        found = oracle.run(a).outcome == fuzz::Outcome::kTraceDivergent;
    }
    ASSERT_TRUE(found) << "seed 21 yields no divergent faulted case";
    fuzz::FuzzCase b;
    b.delays = sys::DelayConfig::nominal(campaign.spec());
    for (std::size_t d = 0; d < b.delays.dimensions(); ++d) {
        b.delays.set(d, 200);
    }

    const fuzz::RunReport ra = oracle.run(a);
    const fuzz::RunReport rb = oracle.run(b);
    fuzz::CaseRunner runner(campaign);
    EXPECT_TRUE(runner.run(a) == ra);
    EXPECT_TRUE(runner.run(b) == rb);
    EXPECT_TRUE(runner.run(a) == ra);
    EXPECT_TRUE(runner.run(b) == rb);
}

// --- shrink / replay ------------------------------------------------------

// A failure retained by an engine campaign shrinks on one lane, and the
// shrunk case replays through run_case exactly as the oracle classifies it.
TEST(GangShrink, GangRetainedFailureShrinksAndReplays) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 80;
    cfg.classes = {fuzz::FaultClass::kTokenDropWire};
    const fuzz::Campaign campaign(cfg);

    const auto summary = run_engine(campaign, 40, 7, 2);
    ASSERT_TRUE(summary == oracle::run_campaign(campaign, 40, 7));
    ASSERT_FALSE(summary.failures.empty());

    const auto& failure = summary.failures.front();
    const auto shrunk = fuzz::shrink(campaign, failure.c);
    EXPECT_EQ(shrunk.outcome, failure.report.outcome);
    EXPECT_GT(shrunk.attempts, 1u);
    const auto replay = campaign.run_case(shrunk.minimal);
    EXPECT_EQ(replay.outcome, shrunk.outcome);
    oracle::CaseOracle oracle(campaign);
    EXPECT_TRUE(replay == oracle.run(shrunk.minimal));
    EXPECT_TRUE(replay == campaign.run_case(shrunk.minimal));
}

// Shrink runs every attempt on one CaseRunner, so each attempt lands on a
// lane the previous attempt dirtied. For the first retained failure of each
// fault class the result must not depend on that history: a second shrink
// gives the same minimal case in the same number of attempts, and the
// minimal case classifies as the oracle classifies it.
TEST(GangShrink, EveryFaultClassShrinksDeterministicallyToOracleReport) {
    std::size_t shrunk_classes = 0;
    for (const auto cls : fuzz::all_fault_classes()) {
        SCOPED_TRACE(static_cast<int>(cls));
        fuzz::CampaignConfig cfg;
        cfg.spec_name = "pair";
        cfg.cycles = 80;
        cfg.classes = {cls};
        const fuzz::Campaign campaign(cfg);
        const auto summary = run_engine(campaign, 40, 3, 2);
        if (summary.failures.empty()) continue;  // class is silent on pair

        const auto& failure = summary.failures.front();
        const auto first = fuzz::shrink(campaign, failure.c);
        const auto second = fuzz::shrink(campaign, failure.c);
        EXPECT_EQ(first.outcome, failure.report.outcome);
        EXPECT_TRUE(first.minimal == second.minimal);
        EXPECT_EQ(first.attempts, second.attempts);
        oracle::CaseOracle oracle(campaign);
        const auto expected = oracle.run(first.minimal);
        EXPECT_EQ(expected.outcome, first.outcome);
        EXPECT_TRUE(campaign.run_case(first.minimal) == expected);
        ++shrunk_classes;
    }
    EXPECT_GE(shrunk_classes, 3u);
}

// --- the lane contract: delays after a rewind -----------------------------

// Ring hop delays are not snapshot state: a rewind keeps the previous
// case's ring perturbation, and only apply_live restores the nominal
// point. Rewind + apply_live(nominal) after a perturbed case must then
// trace exactly like a freshly elaborated nominal Soc.
TEST(GangLane, RewindThenNominalApplyLiveMatchesFreshSoc) {
    const sys::SocSpec spec = sys::make_named_spec("pair");
    const sim::Time nominal_hop = spec.rings[0].delay_ab;
    const sim::Time deadline = sim::ms(2000);
    gang::Lane lane(spec, {});

    const auto nominal = sys::DelayConfig::nominal(spec);
    auto slow = nominal;
    for (std::size_t d = 0; d < slow.dimensions(); ++d) slow.set(d, 200);
    lane.rewind();
    sys::apply_live(lane.soc(), slow);
    lane.soc().run_cycles(60, deadline);

    lane.rewind();
    EXPECT_EQ(lane.soc().ring(0).hop_delay(0), 2 * nominal_hop)
        << "ring hop delays ride outside the image";
    sys::apply_live(lane.soc(), nominal);
    EXPECT_EQ(lane.soc().ring(0).hop_delay(0), nominal_hop);
    lane.soc().run_cycles(60, deadline);

    sys::Soc fresh(spec);
    fresh.run_cycles(60, deadline);
    EXPECT_EQ(lane.soc().traces(), fresh.traces());
    EXPECT_EQ(lane.soc().scheduler().events_executed(),
              fresh.scheduler().events_executed());
}

// The same contract at a campaign's warm-up boundary: rewinding to the
// shared prefix also keeps the previous case's ring perturbation, and
// apply_live(nominal) then continues exactly like a fresh nominal Soc that
// ran the prefix itself.
TEST(GangLane, RewindToWarmupPrefixThenNominalApplyLiveMatchesFreshSoc) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 60;
    cfg.warmup_cycles = 30;
    const fuzz::Campaign campaign(cfg);
    const sys::SocSpec& spec = campaign.spec();
    const sim::Time nominal_hop = spec.rings[0].delay_ab;
    const sim::Time deadline = sim::ms(2000);
    gang::Lane lane(campaign.program(), {});

    const auto nominal = sys::DelayConfig::nominal(spec);
    auto slow = nominal;
    for (std::size_t d = 0; d < slow.dimensions(); ++d) slow.set(d, 200);
    lane.rewind(campaign.warmup_prefix(), campaign.warmup_prefix_plan());
    sys::apply_live(lane.soc(), slow);
    lane.soc().run_cycles(cfg.cycles, deadline);

    lane.rewind(campaign.warmup_prefix(), campaign.warmup_prefix_plan());
    EXPECT_EQ(lane.soc().ring(0).hop_delay(0), 2 * nominal_hop)
        << "ring hop delays ride outside the prefix image too";
    sys::apply_live(lane.soc(), nominal);
    EXPECT_EQ(lane.soc().ring(0).hop_delay(0), nominal_hop);
    lane.soc().run_cycles(cfg.cycles, deadline);

    sys::Soc fresh(spec);
    fresh.run_cycles(cfg.warmup_cycles, deadline);
    fresh.settle();
    fresh.run_cycles(cfg.cycles, deadline);
    EXPECT_EQ(lane.soc().traces(), fresh.traces());
}

// --- shared program & delta rewind ---------------------------------------

/// Exercise one campaign's lane through a fault-free case and a faulted
/// case; after each, both rewind flavours — the plan (delta) path and a
/// fresh strict full restore — must land the lane on the program's exact
/// pristine state, witnessed by re-serializing the live state and
/// comparing digests.
void check_rewind_equivalence(const fuzz::Campaign& campaign,
                              std::uint64_t cycles) {
    gang::Lane::Options opt;
    opt.golden = &campaign.golden_index();
    opt.monitor = true;
    gang::Lane lane(campaign.program(), opt);
    const std::uint64_t pristine = lane.pristine().digest();
    const sim::Time deadline = sim::ms(2000);

    sim::Rng rng(91);
    const auto dirty = [&](gang::Lane& l, const fuzz::FuzzCase& c,
                           std::uint64_t n) {
        // Injector scoped per case, as CaseRunner scopes its own: rewinds
        // happen with no per-case hooks attached.
        fuzz::Injector inj(l.soc(), c.faults);
        sys::apply_live(l.soc(), c.delays);
        l.soc().run_cycles(n, deadline);
    };

    for (int k = 0; k < 2; ++k) {
        fuzz::FuzzCase c = campaign.random_case(rng);
        if (k == 0) c.faults.clear();
        SCOPED_TRACE(k == 0 ? "fault-free" : "faulted");

        lane.rewind();
        dirty(lane, c, cycles);
        lane.rewind();  // delta path through the shared plan
        EXPECT_EQ(lane.soc().pristine_image().digest(), pristine);

        dirty(lane, c, cycles);
        lane.soc().reset_from_image(lane.pristine());  // strict full parse
        EXPECT_EQ(lane.soc().pristine_image().digest(), pristine);
    }
}

TEST(GangRewind, PlanRewindMatchesStrictRestoreShippedSpecs) {
    for (const auto& name : sys::named_specs()) {
        SCOPED_TRACE(name);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = name;
        cfg.cycles = 40;
        cfg.classes = classes_for(name);
        const fuzz::Campaign campaign(cfg);
        check_rewind_equivalence(campaign, cfg.cycles);
    }
}

TEST(GangRewind, PlanRewindMatchesStrictRestoreTopoFixtures) {
    for (const char* file : {"mesh_8x8.stspec", "star_64.stspec"}) {
        SCOPED_TRACE(file);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = file;
        cfg.cycles = 40;
        cfg.classes = fuzz::all_fault_classes();
        const fuzz::Campaign campaign(cfg, fixture_spec(file));
        check_rewind_equivalence(campaign, cfg.cycles);
    }
}

// --- program registry sharing --------------------------------------------

// Every holder on one spec key — free-standing lanes, the campaign itself,
// and a CaseRunner's lane — must hand back the identical Program object,
// not an equivalent copy: one elaboration, one pristine image, one plan per
// process.
TEST(GangProgram, LanesCampaignAndSweepContextShareOneProgram) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 40;
    const fuzz::Campaign campaign(cfg);

    const sys::SocSpec spec = sys::make_named_spec("pair");
    gang::Lane a(spec, {});
    gang::Lane b(spec, {});
    EXPECT_EQ(a.program().get(), b.program().get());
    EXPECT_EQ(a.program().get(), campaign.program().get());

    fuzz::CaseRunner runner(campaign);
    EXPECT_EQ(runner.lane().program().get(), campaign.program().get());

    // A perturbed spec is a different program: its key is cleared, so it
    // gets a private elaboration, never the nominal registry entry.
    auto dc = sys::DelayConfig::nominal(spec);
    dc.set(0, 150);
    const sys::SocSpec perturbed = sys::apply(spec, dc);
    EXPECT_TRUE(perturbed.program_key.empty());
    EXPECT_NE(gang::Program::get(perturbed).get(), a.program().get());
}

// A concurrent race on one never-seen key must yield exactly one registry
// entry and one elaboration (construction happens under the registry
// lock); every thread gets the identical pointer. Run under TSan in CI.
TEST(GangProgram, ConcurrentGetYieldsExactlyOneEntry) {
    sys::SocSpec spec = sys::make_named_spec("pair");
    spec.program_key = "test:concurrent-get";
    const std::uint64_t misses0 = gang::Program::registry_misses();
    const std::uint64_t hits0 = gang::Program::registry_hits();
    const std::size_t entries0 = gang::Program::registry_entries();

    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::shared_ptr<const gang::Program>> got(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            ready.fetch_add(1);
            while (!go.load()) std::this_thread::yield();
            got[static_cast<std::size_t>(i)] = gang::Program::get(spec);
        });
    }
    while (ready.load() < kThreads) std::this_thread::yield();
    go.store(true);
    for (auto& t : threads) t.join();

    for (int i = 0; i < kThreads; ++i) {
        ASSERT_NE(got[static_cast<std::size_t>(i)], nullptr);
        EXPECT_EQ(got[static_cast<std::size_t>(i)].get(), got[0].get());
    }
    EXPECT_EQ(gang::Program::registry_misses(), misses0 + 1);
    EXPECT_EQ(gang::Program::registry_hits(),
              hits0 + static_cast<std::uint64_t>(kThreads) - 1);
    EXPECT_EQ(gang::Program::registry_entries(), entries0 + 1);
}

}  // namespace
