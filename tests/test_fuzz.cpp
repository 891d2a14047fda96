// Unit tests for the fault-injection fuzzing harness: fault vocabulary,
// injector hook wiring, campaign classification, greedy shrinking, and the
// replayable repro format. The end-to-end smoke campaigns live in CTest via
// the st_fuzz CLI (tools/CMakeLists.txt); these tests pin the semantics the
// CLI builds on.

#include <gtest/gtest.h>

#include <stdexcept>

#include "fuzz/campaign.hpp"
#include "fuzz/fault.hpp"
#include "fuzz/injector.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"

namespace {

using namespace st;

fuzz::CampaignConfig pair_config() {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 100;
    return cfg;
}

// --- fault vocabulary ---

TEST(Fault, NamesRoundTripThroughParse) {
    for (const fuzz::FaultClass cls : fuzz::all_fault_classes()) {
        const auto parsed = fuzz::parse_fault_class(fuzz::fault_class_name(cls));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, cls);
    }
    EXPECT_FALSE(fuzz::parse_fault_class("no-such-fault").has_value());
}

TEST(Fault, DescribeMatchesReproGrammar) {
    fuzz::Fault f;
    f.cls = fuzz::FaultClass::kTokenDropWire;
    f.unit = 3;
    f.side = 1;
    f.nth = 2;
    f.value = 7;
    EXPECT_EQ(f.describe(), "token-drop unit=3 side=1 nth=2 value=7");
}

TEST(FuzzCase, ComplexityCountsFaultsAndPerturbedDims) {
    const auto spec = sys::make_named_spec("pair");
    fuzz::FuzzCase c;
    c.delays = sys::DelayConfig::nominal(spec);
    EXPECT_EQ(c.complexity(), 0u);
    c.delays.set(0, 150);
    c.delays.set(2, 50);
    c.faults.push_back(fuzz::Fault{});
    EXPECT_EQ(c.complexity(), 3u);
}

// --- outcomes ---

TEST(Outcome, NamesRoundTripThroughParse) {
    for (std::size_t i = 0; i < fuzz::kNumOutcomes; ++i) {
        const auto o = static_cast<fuzz::Outcome>(i);
        const auto parsed = fuzz::parse_outcome(fuzz::outcome_name(o));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, o);
    }
    EXPECT_FALSE(fuzz::parse_outcome("flaky").has_value());
}

// --- injector validation ---

TEST(Injector, RejectsOutOfRangeUnits) {
    const auto spec = sys::make_named_spec("pair");

    fuzz::Fault bad_ring;
    bad_ring.cls = fuzz::FaultClass::kTokenDropWire;
    bad_ring.unit = 99;
    {
        sys::Soc soc(spec);
        EXPECT_THROW(fuzz::Injector(soc, {bad_ring}), std::invalid_argument);
    }

    fuzz::Fault bad_side;
    bad_side.cls = fuzz::FaultClass::kTokenDuplicate;
    bad_side.side = 2;
    {
        sys::Soc soc(spec);
        EXPECT_THROW(fuzz::Injector(soc, {bad_side}), std::invalid_argument);
    }

    fuzz::Fault bad_channel;
    bad_channel.cls = fuzz::FaultClass::kFifoStall;
    bad_channel.unit = 99;
    {
        sys::Soc soc(spec);
        EXPECT_THROW(fuzz::Injector(soc, {bad_channel}),
                     std::invalid_argument);
    }

    fuzz::Fault bad_sb;
    bad_sb.cls = fuzz::FaultClass::kRestartGlitch;
    bad_sb.unit = 99;
    {
        sys::Soc soc(spec);
        EXPECT_THROW(fuzz::Injector(soc, {bad_sb}), std::invalid_argument);
    }
}

// --- campaign classification ---

TEST(Campaign, NominalCaseIsDeterministic) {
    const fuzz::Campaign campaign(pair_config());
    EXPECT_FALSE(campaign.golden().empty());

    fuzz::FuzzCase nominal;
    nominal.delays = sys::DelayConfig::nominal(campaign.spec());
    const fuzz::RunReport r = campaign.run_case(nominal);
    EXPECT_EQ(r.outcome, fuzz::Outcome::kDeterministic);
    EXPECT_TRUE(r.goal_met);
    EXPECT_EQ(r.faults_fired, 0u);
}

TEST(Campaign, PerturbedDelaysStayDeterministic) {
    // The paper's §5 property: benign delay perturbation never changes the
    // cycle-indexed I/O sequences.
    const fuzz::Campaign campaign(pair_config());
    fuzz::FuzzCase c;
    c.delays = sys::DelayConfig::nominal(campaign.spec());
    for (auto& pct : c.delays.fifo_pct) pct = 200;
    for (auto& pct : c.delays.ring_ab_pct) pct = 50;
    for (auto& pct : c.delays.ring_ba_pct) pct = 150;
    const fuzz::RunReport r = campaign.run_case(c);
    EXPECT_EQ(r.outcome, fuzz::Outcome::kDeterministic);
}

TEST(Campaign, TokenDropDeadlocksAndIsNeverSilent) {
    const fuzz::Campaign campaign(pair_config());
    fuzz::FuzzCase c;
    c.delays = sys::DelayConfig::nominal(campaign.spec());
    fuzz::Fault drop;
    drop.cls = fuzz::FaultClass::kTokenDropWire;
    drop.unit = 0;
    drop.side = 1;
    drop.nth = 1;
    c.faults.push_back(drop);

    const fuzz::RunReport r = campaign.run_case(c);
    EXPECT_EQ(r.outcome, fuzz::Outcome::kDeadlocked);
    EXPECT_EQ(r.faults_fired, 1u);
    EXPECT_FALSE(r.goal_met);
    EXPECT_FALSE(r.detail.empty());
}

TEST(Campaign, TokenDuplicateTripsProtocolInvariant) {
    const fuzz::Campaign campaign(pair_config());
    fuzz::FuzzCase c;
    c.delays = sys::DelayConfig::nominal(campaign.spec());
    fuzz::Fault dup;
    dup.cls = fuzz::FaultClass::kTokenDuplicate;
    dup.unit = 0;
    dup.side = 0;
    dup.nth = 1;
    c.faults.push_back(dup);

    const fuzz::RunReport r = campaign.run_case(c);
    EXPECT_EQ(r.outcome, fuzz::Outcome::kInvariantViolation);
    EXPECT_GT(r.protocol_errors, 0u);
}

TEST(Campaign, ProbeCaseAgreesWithRunCaseOnFailures) {
    // probe_case classifies through classify_case's invariant and deadlock
    // branches, so without a golden run it reports what run_case does.
    const fuzz::Campaign campaign(pair_config());
    const struct {
        fuzz::FaultClass cls;
        std::size_t side;
        fuzz::Outcome expect;
    } kCases[] = {
        {fuzz::FaultClass::kTokenDropWire, 1, fuzz::Outcome::kDeadlocked},
        {fuzz::FaultClass::kTokenDuplicate, 0,
         fuzz::Outcome::kInvariantViolation},
    };
    for (const auto& k : kCases) {
        SCOPED_TRACE(fuzz::outcome_name(k.expect));
        fuzz::FuzzCase c;
        c.delays = sys::DelayConfig::nominal(campaign.spec());
        fuzz::Fault f;
        f.cls = k.cls;
        f.unit = 0;
        f.side = k.side;
        f.nth = 1;
        c.faults.push_back(f);

        const fuzz::RunReport run = campaign.run_case(c);
        const fuzz::RunReport probe =
            fuzz::probe_case(campaign.spec(), c, campaign.config().cycles,
                             campaign.config().max_events);
        EXPECT_EQ(run.outcome, k.expect);
        EXPECT_EQ(probe.outcome, run.outcome);
        EXPECT_EQ(probe.detail, run.detail);
        EXPECT_EQ(probe.faults_fired, run.faults_fired);
        EXPECT_EQ(probe.protocol_errors, run.protocol_errors);
    }
}

TEST(Campaign, RestartGlitchIsAbsorbed) {
    // A delayed asynchronous restart shifts wall-clock time only; in local
    // cycle index space nothing moves — the paper's robustness argument.
    const fuzz::Campaign campaign(pair_config());
    fuzz::FuzzCase c;
    c.delays = sys::DelayConfig::nominal(campaign.spec());
    // Slow the ring so tokens arrive late and the clocks actually stop —
    // at nominal pair timing there is no restart for the glitch to hit.
    for (auto& pct : c.delays.ring_ab_pct) pct = 200;
    for (auto& pct : c.delays.ring_ba_pct) pct = 200;
    fuzz::Fault glitch;
    glitch.cls = fuzz::FaultClass::kRestartGlitch;
    glitch.unit = 0;
    glitch.nth = 1;
    glitch.value = 700;
    c.faults.push_back(glitch);

    const fuzz::RunReport r = campaign.run_case(c);
    EXPECT_EQ(r.outcome, fuzz::Outcome::kDeterministic);
    EXPECT_EQ(r.faults_fired, 1u);
}

TEST(Campaign, StuckDataDiverges) {
    const fuzz::Campaign campaign(pair_config());
    fuzz::FuzzCase c;
    c.delays = sys::DelayConfig::nominal(campaign.spec());
    fuzz::Fault stuck;
    stuck.cls = fuzz::FaultClass::kFifoStuckData;
    stuck.unit = 0;
    stuck.nth = 1;
    stuck.value = 0xdeadbeefull;
    c.faults.push_back(stuck);

    const fuzz::RunReport r = campaign.run_case(c);
    EXPECT_EQ(r.outcome, fuzz::Outcome::kTraceDivergent);
    EXPECT_FALSE(r.detail.empty());
}

TEST(Campaign, RunCaseIsDeterministic) {
    const fuzz::Campaign campaign(pair_config());
    sim::Rng rng(99);
    fuzz::CampaignConfig cfg = pair_config();
    cfg.classes = fuzz::all_fault_classes();
    const fuzz::Campaign faulty(cfg);
    const fuzz::FuzzCase c = faulty.random_case(rng);
    const fuzz::RunReport a = faulty.run_case(c);
    const fuzz::RunReport b = faulty.run_case(c);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.faults_fired, b.faults_fired);
}

TEST(Campaign, RandomCaseRespectsConfig) {
    fuzz::CampaignConfig cfg = pair_config();
    cfg.classes = {fuzz::FaultClass::kTokenDropWire};
    cfg.max_faults = 2;
    const fuzz::Campaign campaign(cfg);
    sim::Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        const fuzz::FuzzCase c = campaign.random_case(rng);
        EXPECT_GE(c.faults.size(), 1u);
        EXPECT_LE(c.faults.size(), 2u);
        for (const auto& f : c.faults) {
            EXPECT_EQ(f.cls, fuzz::FaultClass::kTokenDropWire);
        }
        for (const unsigned pct : c.delays.clock_pct) EXPECT_GE(pct, 75u);
    }
}

TEST(Campaign, SummaryCountsAndCollectsFailures) {
    fuzz::CampaignConfig cfg = pair_config();
    cfg.classes = {fuzz::FaultClass::kTokenDropWire};
    const fuzz::Campaign campaign(cfg);
    const fuzz::CampaignSummary s = campaign.run(10, 7);
    EXPECT_EQ(s.runs, 10u);
    EXPECT_EQ(s.by_outcome[static_cast<std::size_t>(
                  fuzz::Outcome::kDeadlocked)],
              10u);
    EXPECT_EQ(s.runs_with_fault_fired, 10u);
    EXPECT_EQ(s.failures.size(), 10u);
    EXPECT_EQ(s.failures_dropped, 0u);
}

TEST(Campaign, SummaryCapsRetainedFailuresAndCountsOverflow) {
    // Every token-drop run fails, so a 40-run campaign overflows the
    // kMaxFailures retention bound; the overflow is counted, not silently
    // discarded, and the aggregate counters still cover every run.
    fuzz::CampaignConfig cfg = pair_config();
    cfg.classes = {fuzz::FaultClass::kTokenDropWire};
    const fuzz::Campaign campaign(cfg);
    const std::uint64_t runs = fuzz::CampaignSummary::kMaxFailures + 8;
    const fuzz::CampaignSummary s = campaign.run(runs, 7);
    EXPECT_EQ(s.runs, runs);
    EXPECT_EQ(s.failures.size(), fuzz::CampaignSummary::kMaxFailures);
    EXPECT_EQ(s.failures_dropped, 8u);
    std::uint64_t classified = 0;
    for (const auto c : s.by_outcome) classified += c;
    EXPECT_EQ(classified, runs);
}

// --- shrinking ---

TEST(Shrink, ReducesDecoyedCaseToSingleFault) {
    const fuzz::Campaign campaign(pair_config());
    fuzz::FuzzCase c;
    c.delays = sys::DelayConfig::nominal(campaign.spec());
    c.delays.set(0, 150);  // decoy delay perturbations
    c.delays.set(3, 150);
    fuzz::Fault drop;
    drop.cls = fuzz::FaultClass::kTokenDropWire;
    drop.unit = 0;
    drop.side = 1;
    drop.nth = 1;
    fuzz::Fault decoy;
    decoy.cls = fuzz::FaultClass::kRestartGlitch;
    decoy.unit = 0;
    decoy.nth = 1;
    decoy.value = 300;
    c.faults = {drop, decoy};
    ASSERT_EQ(c.complexity(), 4u);

    const fuzz::ShrinkResult res = fuzz::shrink(campaign, c);
    EXPECT_EQ(res.outcome, fuzz::Outcome::kDeadlocked);
    EXPECT_EQ(res.minimal.complexity(), 1u);
    ASSERT_EQ(res.minimal.faults.size(), 1u);
    EXPECT_EQ(res.minimal.faults[0], drop);
    EXPECT_EQ(campaign.run_case(res.minimal).outcome,
              fuzz::Outcome::kDeadlocked);
    EXPECT_GT(res.attempts, 1u);
}

TEST(Shrink, RejectsPassingCase) {
    const fuzz::Campaign campaign(pair_config());
    fuzz::FuzzCase ok;
    ok.delays = sys::DelayConfig::nominal(campaign.spec());
    EXPECT_THROW(fuzz::shrink(campaign, ok), std::invalid_argument);
}

// --- repro format ---

TEST(Repro, RoundTripsThroughText) {
    const auto spec = sys::make_named_spec("pair");
    fuzz::FuzzCase c;
    c.delays = sys::DelayConfig::nominal(spec);
    c.delays.set(2, 150);
    c.delays.set(5, 75);
    fuzz::Fault drop;
    drop.cls = fuzz::FaultClass::kTokenDropWire;
    drop.unit = 0;
    drop.side = 1;
    drop.nth = 2;
    c.faults.push_back(drop);

    const fuzz::Repro out = fuzz::Repro::from_case(
        "pair", 120, fuzz::Outcome::kDeadlocked, c);
    const fuzz::Repro in = fuzz::Repro::parse(out.to_text());
    EXPECT_EQ(in.spec_name, "pair");
    EXPECT_EQ(in.cycles, 120u);
    ASSERT_TRUE(in.expected.has_value());
    EXPECT_EQ(*in.expected, fuzz::Outcome::kDeadlocked);
    EXPECT_EQ(in.to_case(spec), c);
}

TEST(Repro, ParseSkipsCommentsAndBlankLines) {
    const fuzz::Repro r = fuzz::Repro::parse(
        "# header comment\n"
        "\n"
        "spec triangle   # trailing comment\n"
        "cycles 80\n");
    EXPECT_EQ(r.spec_name, "triangle");
    EXPECT_EQ(r.cycles, 80u);
    EXPECT_FALSE(r.expected.has_value());
}

TEST(Repro, ParseRejectsMalformedInput) {
    EXPECT_THROW(fuzz::Repro::parse("cycles 10\n"), std::invalid_argument);
    EXPECT_THROW(fuzz::Repro::parse("spec pair\nbogus 1\n"),
                 std::invalid_argument);
    EXPECT_THROW(fuzz::Repro::parse("spec pair\noutcome flaky\n"),
                 std::invalid_argument);
    EXPECT_THROW(fuzz::Repro::parse("spec pair\ndelay 3\n"),
                 std::invalid_argument);
    EXPECT_THROW(
        fuzz::Repro::parse("spec pair\nfault no-such unit=0 side=0 nth=1 "
                           "value=0\n"),
        std::invalid_argument);
    EXPECT_THROW(
        fuzz::Repro::parse("spec pair\nfault token-drop unit=x side=0 nth=1 "
                           "value=0\n"),
        std::invalid_argument);
}

TEST(Repro, HeaderRoundTripsVersionAndProvenance) {
    fuzz::Repro out;
    out.spec_name = "pair";
    out.cycles = 90;
    out.seed = 12345;
    out.jobs = 4;
    const std::string text = out.to_text();
    EXPECT_EQ(text.rfind("st-fuzz-repro v2 seed=12345 jobs=4\n", 0), 0u);

    const fuzz::Repro in = fuzz::Repro::parse(text);
    EXPECT_EQ(in.version, fuzz::Repro::kFormatVersion);
    ASSERT_TRUE(in.seed.has_value());
    EXPECT_EQ(*in.seed, 12345u);
    ASSERT_TRUE(in.jobs.has_value());
    EXPECT_EQ(*in.jobs, 4u);
}

TEST(Repro, HeaderlessFilesParseAsVersionOne) {
    const fuzz::Repro r = fuzz::Repro::parse("spec pair\ncycles 50\n");
    EXPECT_EQ(r.version, 1u);
    EXPECT_FALSE(r.seed.has_value());
    EXPECT_FALSE(r.jobs.has_value());
}

TEST(Repro, RejectsUnknownFormatVersionWithClearDiagnostic) {
    try {
        fuzz::Repro::parse("st-fuzz-repro v3\nspec pair\n");
        FAIL() << "v3 header must be rejected";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("version 3"), std::string::npos) << what;
        EXPECT_NE(what.find("v2"), std::string::npos) << what;
    }
    EXPECT_THROW(fuzz::Repro::parse("st-fuzz-repro v0\nspec pair\n"),
                 std::invalid_argument);
    EXPECT_THROW(fuzz::Repro::parse("st-fuzz-repro 2\nspec pair\n"),
                 std::invalid_argument);
    EXPECT_THROW(fuzz::Repro::parse("st-fuzz-repro v2 color=red\n"),
                 std::invalid_argument);
    // The header must lead the file.
    EXPECT_THROW(fuzz::Repro::parse("spec pair\nst-fuzz-repro v2\n"),
                 std::invalid_argument);
}

TEST(Repro, ToCaseRejectsOutOfRangeDimension) {
    const auto spec = sys::make_named_spec("pair");
    fuzz::Repro r;
    r.spec_name = "pair";
    r.delays.emplace_back(999, 150);
    EXPECT_THROW(r.to_case(spec), std::invalid_argument);
}

// --- named spec catalog (used by st_lint and st_fuzz) ---

TEST(NamedSpecs, CatalogBuildsEverySpec) {
    const auto& names = sys::named_specs();
    EXPECT_EQ(names.size(), 6u);
    for (const auto& name : names) {
        const sys::SocSpec spec = sys::make_named_spec(name);
        EXPECT_FALSE(spec.sbs.empty()) << name;
    }
    EXPECT_THROW(sys::make_named_spec("nonesuch"), std::invalid_argument);
}

}  // namespace
