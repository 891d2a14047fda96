// Scheduler hot-path microbench: raw event throughput of the deterministic
// discrete-event kernel, the multiplier under every workload in the repo
// (every fuzz case, determinism sweep and bench run is millions of
// schedule/dispatch pairs).
//
// The kernel's hot path — move-only small-buffer callbacks built and run in
// place in pooled event records, behind a (time, priority, seq) keyed heap —
// is measured here. Every row is a median over repeated samples with its
// p95/CV, recorded in BENCH_scheduler.json so the trajectory can be tracked
// (docs/PERF.md).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "sim/scheduler.hpp"
#include "system/soc.hpp"
#include "system/testbenches.hpp"

namespace {

using namespace st;

/// Self-rescheduling event chain: the pure schedule+dispatch cycle with a
/// minimal capture ([&sched, &left] — two pointers), queue depth 1. This is
/// the upper bound on kernel event rate.
double chain_events_per_sec(std::uint64_t n_events) {
    sim::Scheduler sched;
    std::uint64_t left = n_events;
    const auto t0 = std::chrono::steady_clock::now();
    struct Hop {
        sim::Scheduler* s;
        std::uint64_t* left;
        void operator()() const {
            if (--*left > 0) s->schedule_after(1, Hop{s, left});
        }
    };
    sched.schedule_after(1, Hop{&sched, &left});
    sched.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(n_events) / (secs > 0 ? secs : 1e-9);
}

/// Wide queue: `width` interleaved periodic event streams keep the heap at
/// depth `width`, exercising sift costs and pool reuse across a deep queue.
double wide_events_per_sec(std::size_t width, std::uint64_t rounds) {
    sim::Scheduler sched;
    std::uint64_t fired = 0;
    struct Tick {
        sim::Scheduler* s;
        std::uint64_t* fired;
        std::uint64_t left;
        void operator()() {
            ++*fired;
            if (left > 0) s->schedule_after(10, Tick{s, fired, left - 1});
        }
    };
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < width; ++i) {
        sched.schedule_after(1 + i, Tick{&sched, &fired, rounds});
    }
    sched.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(fired) / (secs > 0 ? secs : 1e-9);
}

/// End-to-end: events/sec of a real pair-SoC run — the number every sweep
/// workload actually multiplies.
double soc_events_per_sec(std::uint64_t cycles) {
    sys::Soc soc(sys::make_pair_spec());
    const auto t0 = std::chrono::steady_clock::now();
    soc.run_cycles(cycles, sim::ms(60));
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(soc.scheduler().events_executed()) /
           (secs > 0 ? secs : 1e-9);
}

/// One warm-up run, then `samples` recorded runs of an events/s probe.
bench::SampleStats rate_stats(std::size_t samples,
                              const std::function<double()>& probe) {
    probe();
    std::vector<double> xs;
    xs.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) xs.push_back(probe());
    return bench::compute_stats(std::move(xs));
}

void run_experiment() {
    const bool quick = bench::quick_mode();
    const std::uint64_t chain_n = quick ? 200'000 : 2'000'000;
    const std::uint64_t rounds = quick ? 2'000 : 20'000;
    const std::uint64_t cycles = quick ? 2'000 : 20'000;
    const std::size_t samples = quick ? 5 : 15;

    bench::banner("Scheduler kernel event throughput");
    const auto chain =
        rate_stats(samples, [&] { return chain_events_per_sec(chain_n); });
    const auto wide64 =
        rate_stats(samples, [&] { return wide_events_per_sec(64, rounds); });
    const auto wide1k = rate_stats(
        samples, [&] { return wide_events_per_sec(1024, rounds / 10); });
    const auto soc =
        rate_stats(samples, [&] { return soc_events_per_sec(cycles); });
    const auto row = [](const char* name, const bench::SampleStats& s) {
        std::printf("%-26s | %12.0f events/s median | p95 %12.0f | CV %.3f\n",
                    name, s.median, s.p95, s.cv);
    };
    row("self-rescheduling chain", chain);
    row("64-wide periodic queue", wide64);
    row("1024-wide periodic queue", wide1k);
    row("pair SoC end-to-end", soc);

    bench::JsonReport report("BENCH_scheduler.json");
    report.add_stats("scheduler_chain", chain, "events/s", 1);
    report.add_stats("scheduler_wide64", wide64, "events/s", 1);
    report.add_stats("scheduler_wide1024", wide1k, "events/s", 1);
    report.add_stats("scheduler_soc_pair", soc, "events/s", 1);
    report.write();
}

void BM_ScheduleDispatchChain(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain_events_per_sec(100'000));
    }
}
BENCHMARK(BM_ScheduleDispatchChain)->Unit(benchmark::kMillisecond);

void BM_WideQueue(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            wide_events_per_sec(static_cast<std::size_t>(state.range(0)),
                                1'000));
    }
}
BENCHMARK(BM_WideQueue)->Arg(64)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    run_experiment();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
