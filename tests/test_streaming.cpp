// Differential suite for the streaming verification pipeline: the streaming
// (online StreamingChecker, cooperative early exit) and batch (offline
// diff_capture) paths must produce bit-identical verdicts, loci, reports and
// summaries on every corpus this repo ships — the only permitted difference
// is wall-clock. Also pins the early-exit bound, the zero-allocation arena
// reuse, the capture sortedness precondition, and the scheduler stop flag.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/baseline_soc.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/repro.hpp"
#include "sim/scheduler.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"
#include "verify/determinism.hpp"
#include "verify/streaming.hpp"
#include "verify/trace_arena.hpp"

namespace st {
namespace {

// ---------------------------------------------------------------------------
// Campaign differentials
// ---------------------------------------------------------------------------

struct CampaignRuns {
    fuzz::CampaignSummary summary;
    std::vector<fuzz::FuzzCase> cases;
    std::vector<fuzz::RunReport> reports;

    bool operator==(const CampaignRuns&) const = default;
};

CampaignRuns run_campaign(fuzz::CampaignConfig cfg, bool streaming,
                          std::uint64_t runs, std::uint64_t seed,
                          std::size_t jobs) {
    cfg.streaming = streaming;
    const fuzz::Campaign campaign(cfg);
    CampaignRuns out;
    out.summary = campaign.run(
        runs, seed,
        [&](std::size_t, const fuzz::FuzzCase& c, const fuzz::RunReport& r) {
            out.cases.push_back(c);
            out.reports.push_back(r);
        },
        jobs);
    return out;
}

TEST(StreamingBatch, EveryShippedSpecIdenticalReports) {
    for (const auto& name : sys::named_specs()) {
        SCOPED_TRACE(name);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = name;
        cfg.cycles = 40;
        const auto stream = run_campaign(cfg, true, 4, 99, 1);
        const auto batch = run_campaign(cfg, false, 4, 99, 1);
        EXPECT_EQ(stream, batch);
        EXPECT_EQ(stream.summary.runs, 4u);
    }
}

TEST(StreamingBatch, FaultCampaignIdenticalAcrossModesAndJobs) {
    for (const auto* name : {"pair", "triangle"}) {
        SCOPED_TRACE(name);
        fuzz::CampaignConfig cfg;
        cfg.spec_name = name;
        cfg.cycles = 60;
        cfg.classes = fuzz::all_fault_classes();
        cfg.max_faults = 2;

        const auto baseline = run_campaign(cfg, true, 24, 7, 1);
        for (std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{4}}) {
            SCOPED_TRACE(jobs);
            EXPECT_EQ(run_campaign(cfg, true, 24, 7, jobs), baseline);
            EXPECT_EQ(run_campaign(cfg, false, 24, 7, jobs), baseline);
        }
        // A fault campaign over pair/triangle at these seeds exercises every
        // non-deterministic outcome; make sure the differential is not
        // vacuously comparing all-deterministic runs.
        EXPECT_GT(baseline.summary.runs -
                      baseline.summary.by_outcome[static_cast<std::size_t>(
                          fuzz::Outcome::kDeterministic)],
                  0u);
    }
}

TEST(StreamingBatch, DivergentReportCarriesStructuredLocus) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 60;
    cfg.classes = fuzz::all_fault_classes();
    const auto runs = run_campaign(cfg, true, 40, 11, 1);
    bool saw_divergent = false;
    for (const auto& r : runs.reports) {
        if (r.outcome == fuzz::Outcome::kTraceDivergent) {
            saw_divergent = true;
            EXPECT_TRUE(r.locus.valid());
            EXPECT_FALSE(r.locus.sb.empty());
            EXPECT_FALSE(r.detail.empty());
        } else {
            EXPECT_FALSE(r.locus.valid());
        }
    }
    EXPECT_TRUE(saw_divergent);
}

TEST(StreamingBatch, ReproCorpusIdenticalClassification) {
    const std::filesystem::path dir = ST_TESTS_DATA_DIR;
    ASSERT_TRUE(std::filesystem::exists(dir));
    std::size_t replayed = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".repro") continue;
        SCOPED_TRACE(entry.path().filename().string());
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();

        fuzz::Repro repro;
        try {
            repro = fuzz::Repro::parse(text.str());
        } catch (const std::invalid_argument&) {
            // Corpus files that exist to pin parse *rejection* (e.g. the
            // unsupported-version fixture) are not replayable.
            continue;
        }
        fuzz::CampaignConfig cfg;
        cfg.spec_name = repro.spec_name;
        cfg.cycles = repro.cycles;

        cfg.streaming = true;
        const fuzz::Campaign stream(cfg);
        cfg.streaming = false;
        const fuzz::Campaign batch(cfg);

        const auto c = repro.to_case(stream.spec());
        const auto rs = stream.run_case(c);
        const auto rb = batch.run_case(c);
        EXPECT_EQ(rs, rb);
        if (repro.expected) {
            EXPECT_EQ(rs.outcome, *repro.expected);
        }
        ++replayed;
    }
    EXPECT_GE(replayed, 1u);
}

// ---------------------------------------------------------------------------
// Harness differentials
// ---------------------------------------------------------------------------

std::vector<sys::DelayConfig> grid_perturbations(const sys::SocSpec& spec) {
    std::vector<sys::DelayConfig> out;
    const auto nominal = sys::DelayConfig::nominal(spec);
    out.push_back(nominal);
    for (std::size_t dim = 0; dim < nominal.dimensions(); ++dim) {
        for (unsigned pct : {50u, 150u}) {
            auto cfg = nominal;
            cfg.set(dim, pct);
            out.push_back(cfg);
        }
    }
    return out;
}

TEST(HarnessDifferential, SynchroTokensLiveMatchesBatchAndLegacy) {
    const auto spec = sys::make_named_spec("triangle");
    const auto nominal = sys::DelayConfig::nominal(spec);
    const auto perturbations = grid_perturbations(spec);
    // The LiveRunner shape e2ebench's sweep workload uses: elaborate the
    // perturbed spec over the harness's capture and run.
    const auto live = [&spec](const sys::DelayConfig& cfg,
                              verify::RunCapture& cap) {
        sys::Soc soc(std::make_shared<const sys::SocSpec>(
                         sys::apply(spec, cfg)),
                     &cap);
        soc.run_cycles(60, sim::ms(1));
    };

    using Harness = verify::DeterminismHarness<sys::DelayConfig>;
    Harness stream(Harness::LiveRunner(live), nominal, 60);
    Harness batch(Harness::LiveRunner(live), nominal, 60);
    batch.set_streaming(false);
    Harness legacy(Harness::Runner([&live](const sys::DelayConfig& cfg) {
                       verify::RunCapture cap;
                       live(cfg, cap);
                       return cap.traces();
                   }),
                   nominal, 60);

    const auto r_stream = stream.sweep(perturbations);
    EXPECT_EQ(r_stream, batch.sweep(perturbations));
    EXPECT_EQ(r_stream, legacy.sweep(perturbations));
    EXPECT_TRUE(r_stream.all_match());  // the paper's §5 claim
    // Case-index-ordered reduction: jobs only changes wall-clock.
    EXPECT_EQ(r_stream, stream.sweep(perturbations, 2));
    EXPECT_EQ(r_stream, stream.sweep(perturbations, 4));
}

TEST(HarnessDifferential, BaselineDivergentVerdictsIdentical) {
    sys::PairOptions opt;
    opt.period_b = 1009;  // plesiochronous: two-flop baseline diverges
    const auto spec = sys::make_pair_spec(opt);
    const auto nominal = sys::DelayConfig::nominal(spec);
    const auto live = [&spec](const sys::DelayConfig& cfg,
                              verify::RunCapture& cap) {
        baseline::BaselineSoc soc(sys::apply(spec, cfg),
                                  baseline::BaselineSoc::Kind::kTwoFlop, &cap);
        soc.run_cycles(150, sim::ms(1));
    };
    const auto perturbations = grid_perturbations(spec);

    verify::DeterminismHarness<sys::DelayConfig> stream(
        verify::DeterminismHarness<sys::DelayConfig>::LiveRunner(live),
        nominal, 100);
    verify::DeterminismHarness<sys::DelayConfig> batch(
        verify::DeterminismHarness<sys::DelayConfig>::LiveRunner(live),
        nominal, 100);
    batch.set_streaming(false);

    const auto r_stream = stream.sweep(perturbations);
    const auto r_batch = batch.sweep(perturbations);
    // Full equality including the retained example loci: early exit must not
    // change what a divergent run reports, only how long it simulates.
    EXPECT_EQ(r_stream, r_batch);
    EXPECT_GT(r_stream.mismatches, 0u);
    EXPECT_FALSE(r_stream.examples.empty());
    EXPECT_EQ(r_stream, stream.sweep(perturbations, 4));
}

// ---------------------------------------------------------------------------
// Early exit
// ---------------------------------------------------------------------------

TEST(EarlyExit, StopsWithinOneSlotOfInjectedCycle3Divergence) {
    const auto spec = sys::make_named_spec("pair");

    sys::Soc golden_soc(spec);
    ASSERT_TRUE(golden_soc.run_cycles(100, sim::ms(1)));
    const std::uint64_t full_events =
        golden_soc.scheduler().events_executed();
    auto golden = verify::truncated(golden_soc.traces(), 100);

    // Doctor the golden: flip the word of the earliest event at cycle >= 3,
    // so a nominal re-run diverges from the doctored golden at that event.
    std::string victim_sb;
    std::size_t victim_idx = 0;
    std::uint64_t victim_cycle = ~0ull;
    for (const auto& [name, trace] : golden) {
        for (std::size_t i = 0; i < trace.events.size(); ++i) {
            const auto& e = trace.events[i];
            if (e.cycle >= 3 && e.cycle < victim_cycle) {
                victim_sb = name;
                victim_idx = i;
                victim_cycle = e.cycle;
            }
        }
    }
    ASSERT_FALSE(victim_sb.empty());
    ASSERT_LE(victim_cycle, 4u);  // pair traffic starts immediately
    golden[victim_sb].events[victim_idx].word ^= 0x1;
    const verify::GoldenIndex doctored(golden, 100);

    verify::RunCapture cap;
    verify::StreamingChecker checker(doctored);
    checker.attach(cap);
    sys::Soc soc(spec, &cap);
    EXPECT_FALSE(soc.run_cycles(100, sim::ms(1)));
    EXPECT_TRUE(soc.scheduler().stop_requested());
    ASSERT_TRUE(checker.diverged());

    // The run stopped at the next event boundary: no local clock advanced
    // more than one slot past the mismatching cycle, and the event count is
    // a small fraction of the full 100-cycle run.
    for (std::size_t i = 0; i < soc.num_sbs(); ++i) {
        EXPECT_LE(soc.wrapper(i).clock().cycles(), victim_cycle + 2);
    }
    EXPECT_LT(soc.scheduler().events_executed(), full_events / 4);

    // Verdict parity: a full batch run against the same doctored golden
    // reports the identical diff (message and structured locus).
    verify::RunCapture cap_full;
    sys::Soc full(spec, &cap_full);
    full.run_cycles(100, sim::ms(1));
    const auto batch_diff = verify::diff_capture(doctored, cap_full);
    const auto stream_diff = checker.finish();
    EXPECT_EQ(stream_diff, batch_diff);
    EXPECT_FALSE(stream_diff.identical);
    EXPECT_EQ(stream_diff.locus.kind, verify::MismatchLocus::Kind::kValue);
    EXPECT_EQ(stream_diff.locus.sb, victim_sb);
    EXPECT_EQ(stream_diff.locus.cycle, victim_cycle);
}

TEST(EarlyExit, FaultedCampaignCaseStillRunsToCompletion) {
    // A replayed fault case must never early-exit, even under a fault-free
    // campaign config: Outcome precedence requires the full run.
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 60;
    const fuzz::Campaign campaign(cfg);

    fuzz::FuzzCase c;
    c.delays = sys::DelayConfig::nominal(campaign.spec());
    fuzz::Fault f;
    f.cls = fuzz::FaultClass::kTokenDropWire;
    f.side = 1;
    f.nth = 2;
    c.faults.push_back(f);
    const auto report = campaign.run_case(c);
    EXPECT_EQ(report.outcome, fuzz::Outcome::kDeadlocked);
    // diff_capture on the full capture and the streaming verdict agree.
    cfg.streaming = false;
    EXPECT_EQ(report, fuzz::Campaign(cfg).run_case(c));
}

// ---------------------------------------------------------------------------
// Arena + capture invariants
// ---------------------------------------------------------------------------

TEST(TraceArena, ChunksReusedAcrossRuns) {
    const auto spec = sys::make_named_spec("pair");
    auto& arena = verify::TraceArena::local();
    const auto run_once = [&spec] {
        verify::RunCapture cap;
        sys::Soc soc(spec, &cap);
        soc.run_cycles(50, sim::ms(1));
    };
    run_once();
    const std::size_t after_first = arena.chunks_allocated();
    for (int i = 0; i < 3; ++i) run_once();
    // Steady state: every later run recycles the first run's chunks from the
    // freelist — zero new allocations.
    EXPECT_EQ(arena.chunks_allocated(), after_first);
}

TEST(RunCapture, StreamsAreCycleSorted) {
    // truncated() binary-searches its cutoff, which requires cycle-sorted
    // traces; captured streams provide that by construction (each SB's
    // local cycle counter is monotone).
    const auto spec = sys::make_named_spec("triangle");
    verify::RunCapture cap;
    sys::Soc soc(spec, &cap);
    soc.run_cycles(60, sim::ms(1));
    ASSERT_GT(cap.num_streams(), 0u);
    for (const auto& [name, trace] : cap.traces()) {
        EXPECT_TRUE(std::is_sorted(
            trace.events.begin(), trace.events.end(),
            [](const verify::IoEvent& a, const verify::IoEvent& b) {
                return a.cycle < b.cycle;
            }))
            << name;
    }
}

// ---------------------------------------------------------------------------
// Scheduler stop flag
// ---------------------------------------------------------------------------

TEST(SchedulerStop, StopsAtNextEventBoundaryAndIsSticky) {
    sim::Scheduler s;
    std::vector<int> ran;
    s.schedule_at(10, sim::Priority::kDefault, [&] {
        ran.push_back(1);
        s.request_stop();
    });
    s.schedule_at(20, sim::Priority::kDefault, [&] { ran.push_back(2); });
    s.run_until(100);
    // The in-flight event completes; the next one does not run.
    EXPECT_EQ(ran, (std::vector<int>{1}));
    EXPECT_TRUE(s.stop_requested());
    EXPECT_EQ(s.now(), 10u);

    // Sticky: further run calls are no-ops until cleared.
    s.run_until(100);
    EXPECT_EQ(ran, (std::vector<int>{1}));

    s.clear_stop_request();
    EXPECT_FALSE(s.stop_requested());
    s.run_until(100);
    EXPECT_EQ(ran, (std::vector<int>{1, 2}));
    EXPECT_EQ(s.now(), 100u);
}

}  // namespace
}  // namespace st
