// Parallel run-execution engine: wall-clock scaling of st_fuzz campaigns
// over st::runner jobs, with the engine's core guarantee checked on every
// row — the CampaignSummary must be bit-identical at every jobs value, at
// every shard split, and at every resume point (case draws are
// jobs-independent, reduction is case-index-ordered).
//
// Measurement discipline: every scaling row is warmup + repeated samples,
// reported as median with p95/stddev/CV in BENCH_campaign.json
// (docs/PERF.md), so future PRs can tell a real regression from sampling
// noise. Two campaign shapes bracket the engine's regimes: the 2-SB pair
// spec (case setup dominates) and a generated 64-SB mesh (simulation
// dominates). On a 1-core host the speedup is honestly ~1.0x; the
// determinism checks are what must hold everywhere.
//
// The engine runs every case on a persistent rewound lane. The
// `campaign_*_speedup_vs_elaborate` rows time it against a bench-local
// loop that elaborates a fresh Soc per case (the path the lane replaced),
// and the bench exits non-zero if the two summaries differ.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/case_exec.hpp"
#include "fuzz/checkpoint.hpp"
#include "fuzz/injector.hpp"
#include "runner/runner.hpp"
#include "sim/random.hpp"
#include "sva/spec_text.hpp"
#include "system/delay_config.hpp"
#include "system/invariant_monitor.hpp"
#include "system/soc.hpp"
#include "topo/topo.hpp"

namespace {

using namespace st;

struct ScalingRow {
    std::size_t jobs = 0;
    bench::SampleStats stats;  ///< per-campaign wall-clock seconds
    bool identical = true;     ///< summary == jobs=1 summary
};

/// Time `runs` cases at each jobs value with warmup + repeated samples.
/// Exits the process if any summary deviates from the jobs=1 baseline.
std::vector<ScalingRow> scale_campaign(const fuzz::Campaign& campaign,
                                       const std::string& name,
                                       std::uint64_t runs, std::uint64_t seed,
                                       const std::vector<std::size_t>& axis,
                                       std::size_t warmup,
                                       std::size_t samples,
                                       bench::JsonReport& report) {
    std::vector<ScalingRow> rows;
    fuzz::CampaignSummary baseline;
    double median1 = 0.0;
    std::printf("%6s | %9s | %9s | %9s | %6s | %8s | %s\n", "jobs",
                "median s", "p95 s", "runs/s", "cv", "speedup",
                "summary vs jobs=1");
    for (const std::size_t jobs : axis) {
        fuzz::CampaignSummary s;
        const auto xs = bench::measure_seconds(
            warmup, samples, [&] { s = campaign.run(runs, seed, {}, jobs); });
        ScalingRow row;
        row.jobs = jobs;
        row.stats = bench::compute_stats(xs);
        if (jobs == axis.front()) {
            baseline = s;
            median1 = row.stats.median;
        }
        row.identical = s == baseline;
        const double med = row.stats.median > 0 ? row.stats.median : 1e-9;
        std::printf("%6zu | %9.3f | %9.3f | %9.1f | %5.1f%% | %7.2fx | %s\n",
                    jobs, row.stats.median, row.stats.p95,
                    static_cast<double>(runs) / med, 100.0 * row.stats.cv,
                    median1 / med,
                    row.identical ? "bit-identical" : "DIVERGED");
        std::vector<double> rates;
        rates.reserve(xs.size());
        for (const double t : xs) {
            rates.push_back(static_cast<double>(runs) / (t > 0 ? t : 1e-9));
        }
        report.add_stats("campaign_" + name + "_runs_per_sec",
                         bench::compute_stats(rates), "runs/s", jobs);
        report.add("campaign_" + name + "_speedup_vs_jobs1", median1 / med,
                   "x", jobs);
        if (!row.identical) {
            std::fprintf(stderr,
                         "bench_campaign: %s summary diverged at jobs=%zu — "
                         "the engine's determinism contract is broken\n",
                         name.c_str(), jobs);
            std::exit(1);
        }
        rows.push_back(row);
    }
    return rows;
}

/// Serial campaign that elaborates a fresh Soc from the perturbed spec for
/// every case: one capture and (streaming) one checker reused across cases,
/// then Injector, InvariantMonitor, bounded run and classification — the
/// same draws and in-order reduction as Campaign::run at jobs = 1.
fuzz::CampaignSummary elaborate_campaign(const fuzz::Campaign& campaign,
                                         std::uint64_t runs,
                                         std::uint64_t seed) {
    const fuzz::CampaignConfig& cfg = campaign.config();
    verify::RunCapture cap;
    std::unique_ptr<verify::StreamingChecker> checker;
    if (cfg.streaming) {
        checker = std::make_unique<verify::StreamingChecker>(
            campaign.golden_index());
        checker->attach(cap);
    }
    fuzz::CampaignSummary s;
    sim::Rng rng(seed);
    for (std::uint64_t i = 0; i < runs; ++i) {
        const fuzz::FuzzCase c = campaign.random_case(rng);
        if (checker) {
            checker->set_early_exit(cfg.classes.empty() && c.faults.empty());
        }
        auto perturbed = std::make_shared<const sys::SocSpec>(
            sys::apply(campaign.spec(), c.delays));
        const sim::Time deadline = fuzz::case_deadline(
            fuzz::max_effective_period(*perturbed), cfg.cycles);
        sys::Soc soc(std::move(perturbed), &cap);
        fuzz::Injector injector(soc, c.faults);
        sys::InvariantMonitor monitor(soc);
        bool budget = false;
        const bool goal = fuzz::run_bounded(soc, cfg.cycles, deadline,
                                            cfg.max_events, budget);
        const fuzz::RunReport r = fuzz::classify_case(
            soc, injector.fired(), goal, budget, monitor.violations(),
            nullptr, checker.get(), campaign.golden_index(), cap);
        ++s.runs;
        ++s.by_outcome[static_cast<std::size_t>(r.outcome)];
        if (r.faults_fired > 0) ++s.runs_with_fault_fired;
        if (r.outcome != fuzz::Outcome::kDeterministic) {
            s.add_failure(i, c, r);
        }
    }
    return s;
}

/// Engine (jobs = 1) against the per-case elaboration loop, sampled in
/// alternating rounds so host drift hits both alike. Records
/// `campaign_<name>_speedup_vs_elaborate` (median elaborate seconds over
/// median engine seconds) and exits if the summaries differ.
void engine_vs_elaborate(const fuzz::Campaign& campaign,
                         const std::string& name, std::uint64_t runs,
                         std::uint64_t seed, std::size_t warmup,
                         std::size_t samples, bench::JsonReport& report) {
    fuzz::CampaignSummary engine;
    fuzz::CampaignSummary elaborate;
    std::vector<double> t_engine;
    std::vector<double> t_elab;
    for (std::size_t i = 0; i < warmup + samples; ++i) {
        const auto e = bench::measure_seconds(
            0, 1, [&] { engine = campaign.run(runs, seed, {}, 1); });
        const auto x = bench::measure_seconds(0, 1, [&] {
            elaborate = elaborate_campaign(campaign, runs, seed);
        });
        if (i < warmup) continue;
        t_engine.push_back(e[0]);
        t_elab.push_back(x[0]);
    }
    const auto se = bench::compute_stats(t_engine);
    const auto sx = bench::compute_stats(t_elab);
    const double me = se.median > 0 ? se.median : 1e-9;
    const double mx = sx.median > 0 ? sx.median : 1e-9;
    const bool identical = engine == elaborate;
    std::printf("%12s | %9s | %9s | %6s | %s\n", "path", "median s",
                "runs/s", "cv", "summary");
    std::printf("%12s | %9.3f | %9.1f | %5.1f%% | %s\n", "elaborate",
                sx.median, static_cast<double>(runs) / mx, 100.0 * sx.cv,
                "(reference)");
    std::printf("%12s | %9.3f | %9.1f | %5.1f%% | %s (%.2fx)\n", "lane",
                se.median, static_cast<double>(runs) / me, 100.0 * se.cv,
                identical ? "bit-identical" : "DIVERGED", mx / me);
    report.add("campaign_" + name + "_speedup_vs_elaborate", mx / me, "x",
               1);
    if (!identical) {
        std::fprintf(stderr,
                     "bench_campaign: %s engine summary diverged from the "
                     "per-case elaboration loop\n",
                     name.c_str());
        std::exit(1);
    }
}

/// The cross-process half of the contract: shard summaries merge to the
/// single-process summary, and a checkpointed stop + resume reproduces the
/// uninterrupted summary. Both checked byte-for-byte; exits on divergence.
void check_shards_and_resume(const fuzz::Campaign& campaign,
                             const std::string& name, std::uint64_t runs,
                             std::uint64_t seed) {
    const fuzz::CampaignSummary whole = campaign.run(runs, seed, {}, 2);

    std::vector<fuzz::CampaignSummary> parts;
    for (std::uint64_t idx = 0; idx < 2; ++idx) {
        fuzz::CampaignControl ctl;
        ctl.shard = runner::Shard{idx, 2};
        parts.push_back(campaign.run(runs, seed, {}, 2, ctl));
    }
    const bool shards_ok = fuzz::merge_shards(parts) == whole;

    const std::string path = "bench_campaign_" + name + ".ckpt";
    fuzz::CampaignControl stop;
    stop.checkpoint_path = path;
    stop.stop_after = runs / 2;
    campaign.run(runs, seed, {}, 2, stop);
    fuzz::CampaignControl resume;
    resume.checkpoint_path = path;
    resume.resume = true;
    const bool resume_ok = campaign.run(runs, seed, {}, 4, resume) == whole;
    std::remove(path.c_str());

    std::printf("%s: 2-shard merge %s, mid-campaign resume %s\n",
                name.c_str(), shards_ok ? "bit-identical" : "DIVERGED",
                resume_ok ? "bit-identical" : "DIVERGED");
    if (!shards_ok || !resume_ok) {
        std::fprintf(stderr,
                     "bench_campaign: %s shard/resume summary diverged from "
                     "the single-process run\n",
                     name.c_str());
        std::exit(1);
    }
}

void run_experiment() {
    const bool quick = bench::quick_mode();
    const std::uint64_t seed = 1;
    const std::size_t warmup = 1;
    const std::size_t samples = quick ? 3 : 5;

    std::vector<std::size_t> jobs_axis = {1, 2, 4};
    const std::size_t hw = runner::hardware_jobs();
    if (hw > 4) jobs_axis.push_back(hw);

    bench::JsonReport report("BENCH_campaign.json");
    report.add("campaign_hardware_threads", static_cast<double>(hw),
               "threads", 1);

    // --- pair: tiny spec, per-case cost dominated by elaboration/setup ---
    const std::uint64_t pair_runs = quick ? 60 : 200;
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 100;
    const fuzz::Campaign pair(cfg);

    bench::banner("st::runner campaign scaling (pair, fault-free)");
    std::printf("hardware threads: %zu (ST_JOBS overrides); %zu sample(s) "
                "per row after %zu warmup\n",
                hw, samples, warmup);
    scale_campaign(pair, "pair", pair_runs, seed, jobs_axis, warmup, samples,
                   report);
    check_shards_and_resume(pair, "pair", pair_runs, seed);

    // Lane rewind against per-case elaboration on the setup-bound pair
    // spec. Long campaign so the one-time lane construction amortizes as
    // it does in real use.
    bench::banner("lane engine vs per-case elaboration (pair, fault-free)");
    engine_vs_elaborate(pair, "pair", quick ? 400 : 2000, seed, warmup,
                        samples, report);

    // --- mesh64: generated 64-SB mesh (topo::generate), per-case cost
    // dominated by simulation — the regime where parallel workers matter ---
    topo::Options topt;
    topt.shape = topo::Shape::kMesh;
    topt.sbs = 64;
    topt.seed = 7;
    fuzz::CampaignConfig mcfg;
    mcfg.spec_name = "mesh64";
    mcfg.cycles = 60;
    const fuzz::Campaign mesh(mcfg, sva::to_spec(topo::generate(topt)));
    // Enough cases per sample that each row's CV stays near 15% or below at
    // every jobs value: 8/24-case rows read jobs=4 at a 53% CV.
    const std::uint64_t mesh_runs = quick ? 64 : 192;

    bench::banner("st::runner campaign scaling (generated mesh-64)");
    scale_campaign(mesh, "mesh64", mesh_runs, seed, jobs_axis, warmup,
                   samples, report);
    check_shards_and_resume(mesh, "mesh64", mesh_runs, seed);

    bench::banner("lane engine vs per-case elaboration (generated mesh-64)");
    engine_vs_elaborate(mesh, "mesh64", quick ? 16 : 96, seed, warmup,
                        samples, report);

    // --- scaling proof at campaign scale (full mode only): 10^5 cases.
    // One sample — at this size the run IS its own statistics — recorded as
    // a plain row. The nightly CI leg raises this to 10^6.
    if (!quick) {
        bench::banner("100k-run scaling proof (pair)");
        const std::uint64_t big = 100'000;
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            fuzz::CampaignSummary s;
            const auto xs = bench::measure_seconds(
                0, 1, [&] { s = pair.run(big, seed, {}, jobs); });
            std::printf("jobs=%zu: %.1fs (%.0f runs/s)\n", jobs, xs[0],
                        static_cast<double>(big) / xs[0]);
            report.add("campaign_pair_100k_runs_per_sec",
                       static_cast<double>(big) / xs[0], "runs/s", jobs);
        }
    }

    report.write();
}

void BM_CampaignRunJobs(benchmark::State& state) {
    fuzz::CampaignConfig cfg;
    cfg.spec_name = "pair";
    cfg.cycles = 100;
    const fuzz::Campaign campaign(cfg);
    const auto jobs = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        const auto s = campaign.run(20, 7, {}, jobs);
        benchmark::DoNotOptimize(s.runs);
    }
}
BENCHMARK(BM_CampaignRunJobs)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    run_experiment();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
