// st_e2ebench: the repository's end-to-end benchmark.
//
//   st_e2ebench --workload W --seed N --seconds S --trace 0|1
//               --workdir DIR --data-dir DIR --reference-dir DIR
//   st_e2ebench --record-reference FILE --workdir DIR
//
// One workload per process. --trace 0 measures the end-to-end metrics:
// about S seconds of alternating slices of a parallel phase (min(4, nproc)
// closed-loop workers) and a serial phase (jobs = 1) over a prefix of the
// same ops, with set-up time sampled before and between the slices.
// --trace 1 runs the two phases for S/2 seconds, then replays a fixed
// number of ops serially with a span around every public call of the
// default engine and reports the per-layer metrics it measured (run.py
// completes the list from BENCHMARK.json). Every op is checked against the
// reference pinned for it, and the serial phase must reproduce the parallel
// phase's records. The last stdout line is the JSON result.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "campaign_workload.hpp"
#include "gang/program.hpp"
#include "harness.hpp"
#include "workload.hpp"

#ifndef ST_BENCH_BUILD_TYPE
#define ST_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef ST_BENCH_CXX_FLAGS
#define ST_BENCH_CXX_FLAGS "unknown"
#endif

namespace st::e2e {
namespace {

const std::vector<std::string> kWorkloads = {
    "fuzz-pair-faults", "campaign-mesh64", "sweep-mesh1024", "static-topo"};

/// Campaign seeds of the fuzz-pair-faults reference pool: 7, 8, ...
constexpr std::uint64_t kPairPoolFirstSeed = 7;
constexpr std::size_t kPairPoolSize = 32;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::size_t jobs = 1;  ///< parallel-phase workers: min(4, nproc)
    RunContext ctx;
    std::string record_reference;
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "st_e2ebench: %s\n"
                 "usage: st_e2ebench --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR --data-dir DIR --reference-dir "
                 "DIR\n"
                 "       st_e2ebench --record-reference FILE --workdir DIR\n"
                 "workloads: fuzz-pair-faults campaign-mesh64 "
                 "sweep-mesh1024 static-topo\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* s) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0') usage(flag + " expects a whole number");
    return v;
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage("missing value for " + a);
        const char* v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = parse_u64(a, v);
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(parse_u64(a, v));
        } else if (a == "--trace") {
            const std::uint64_t t = parse_u64(a, v);
            if (t > 1) usage("--trace expects 0 or 1");
            o.trace = t == 1;
        } else if (a == "--workdir") {
            o.ctx.workdir = v;
        } else if (a == "--data-dir") {
            o.ctx.data_dir = v;
        } else if (a == "--reference-dir") {
            o.ctx.reference_dir = v;
        } else if (a == "--record-reference") {
            o.record_reference = v;
        } else {
            usage("unknown flag " + a);
        }
    }
    if (o.ctx.workdir.empty()) usage("--workdir is required");
    o.jobs = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
    o.ctx.jobs = o.jobs;
    o.ctx.seed = o.seed;
    if (!o.record_reference.empty()) return o;
    if (std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) ==
        kWorkloads.end()) {
        usage("unknown workload '" + o.workload + "'");
    }
    if (o.seconds < 1) usage("--seconds must be at least 1");
    if (o.ctx.data_dir.empty() || o.ctx.reference_dir.empty()) {
        usage("--data-dir and --reference-dir are required");
    }
    return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunContext& ctx) {
    if (name == "fuzz-pair-faults") {
        return std::make_unique<CampaignWorkload>(
            CampaignWorkload::Kind::kPairFaults, ctx);
    }
    if (name == "campaign-mesh64") {
        return std::make_unique<CampaignWorkload>(
            CampaignWorkload::Kind::kMesh64, ctx);
    }
    if (name == "sweep-mesh1024") return make_sweep_workload(ctx);
    return make_static_workload(ctx);
}

bool optimized_build() {
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs ops through the workload and keeps the correctness books.
class PhaseRunner {
  public:
    PhaseRunner(Workload& w, const Options& o) : w_(w), o_(o) {}

    /// One set-up sample: the median of a burst of set-ups (one, or more
    /// while they fit in 0.1 s, up to 21) of `w`. The phases take a sample
    /// on the measured workload before the first slice, and (untraced runs
    /// only) one after every slice pair, so set-up time is sampled across
    /// the whole run like the rates are. Those later samples rebuild a
    /// scratch instance, so the state the ops use stays the one built
    /// first, unless the workload asks to be rebuilt in place.
    static double setup_burst(Workload& w) {
        std::vector<double> t;
        const std::int64_t t0 = now_ns();
        while (t.empty() || (t.size() < 21 && seconds_since(t0) < 0.1)) {
            const std::int64_t s = now_ns();
            w.setup();
            t.push_back(seconds_since(s));
        }
        return median(t);
    }

    /// Execute ops [0, n) at `jobs`; returns host seconds. Records land in
    /// `recs`; a failed call fails all n ops.
    double timed(std::uint64_t n, std::size_t jobs,
                 std::vector<std::uint64_t>& recs) {
        w_.prepare(n);
        bool threw = false;
        const std::int64_t t0 = now_ns();
        try {
            w_.run(n, jobs, recs);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "st_e2ebench: run of %llu %ss failed: %s\n",
                         static_cast<unsigned long long>(n), w_.op_name(),
                         e.what());
            recs.assign(n, 0);
            threw = true;
        }
        const double s = seconds_since(t0);
        attempted_ += n;
        for (std::uint64_t i = 0; i < n; ++i) {
            if (threw || !w_.matches_reference(i, recs[i])) ++failed_;
        }
        return s;
    }

    /// Op count for `jobs` workers: at least one quantum per worker, in
    /// whole quanta.
    std::uint64_t ops_for(double want, std::size_t jobs) const {
        const std::uint64_t q = w_.op_quantum() * jobs;
        const auto quanta = static_cast<std::uint64_t>(
            std::llround(want / static_cast<double>(q)));
        return std::max<std::uint64_t>(1, quanta) * q;
    }

    /// Grow a calibration call until it takes `min_s`; returns ops/s.
    double calibrate(std::size_t jobs, double min_s) {
        std::uint64_t k = ops_for(0, jobs);
        std::vector<std::uint64_t> recs;
        for (;;) {
            const double s = timed(k, jobs, recs);
            if (s >= min_s || k >= (1u << 22)) return static_cast<double>(k) / s;
            const double grow = s > 0 ? std::min(min_s / s * 1.2, 64.0) : 16.0;
            k = std::max(k * 2,
                         ops_for(static_cast<double>(k) * grow, jobs));
        }
    }

    struct Phases {
        double setup_s = 0;
        double par_rate = 0;
        double ser_rate = 0;
        std::uint64_t n_par = 0;
        std::uint64_t n_ser = 0;
    };

    /// The parallel and serial phases, `total_s` host seconds between
    /// them, as alternating pairs of calls (up to kSlices of each):
    /// parallel slices run ops [0, n_par), serial slices the prefix
    /// [0, n_ser) of the same ops. Each phase's rate is the median over its
    /// slices, so a transient slowdown of the host moves one slice, not the
    /// result. Every slice must reproduce the first parallel slice's
    /// records.
    Phases phases(double total_s) {
        constexpr int kSlices = 24;
        std::vector<double> setups = {setup_burst(w_)};
        const double ser_est = calibrate(1, 0.15);
        const double par_est = calibrate(o_.jobs, 0.15);
        const double slice_s = total_s / (2 * kSlices);
        Phases p;
        p.n_par = ops_for(par_est * slice_s, o_.jobs);
        p.n_ser = std::min(ops_for(ser_est * slice_s, 1), p.n_par);
        // A workload whose smallest call outlasts a slice gets fewer,
        // longer slices (at least 3 of each); slicing also stops once the
        // time is spent, so a slow host does not stretch the run.
        const double pair_s = static_cast<double>(p.n_par) / par_est +
                              static_cast<double>(p.n_ser) / ser_est;
        const int slices = std::clamp(
            static_cast<int>(total_s / pair_s), 3, kSlices);
        std::vector<std::uint64_t> first, recs;
        std::vector<double> par_rates, ser_rates;
        double spent = 0;
        for (int j = 0; j < slices && (j < 3 || spent < total_s); ++j) {
            const double par_s = timed(p.n_par, o_.jobs, recs);
            par_rates.push_back(static_cast<double>(p.n_par) / par_s);
            if (j == 0) first = recs;
            failed_ += mismatches(first, recs);
            const double ser_s = timed(p.n_ser, 1, recs);
            ser_rates.push_back(static_cast<double>(p.n_ser) / ser_s);
            failed_ += mismatches(first, recs);
            spent += par_s + ser_s;
            if (!o_.trace) {
                setups.push_back(
                    w_.resample_setup_in_place()
                        ? setup_burst(w_)
                        : setup_burst(*make_workload(o_.workload, o_.ctx)));
            }
        }
        p.setup_s = median(setups);
        p.par_rate = median(par_rates);
        p.ser_rate = median(ser_rates);
        std::fprintf(stderr,
                     "st_e2ebench: slice rates (%llu ops at jobs %zu | %llu "
                     "at jobs 1):",
                     static_cast<unsigned long long>(p.n_par), o_.jobs,
                     static_cast<unsigned long long>(p.n_ser));
        for (std::size_t j = 0; j < par_rates.size(); ++j) {
            std::fprintf(stderr, " %.4g|%.4g", par_rates[j], ser_rates[j]);
        }
        std::fprintf(stderr, "\nst_e2ebench: set-up samples:");
        for (const double t : setups) std::fprintf(stderr, " %.4g", t);
        std::fprintf(stderr, "\n");
        return p;
    }

    void add_failed(std::uint64_t n) { failed_ += n; }
    void add_attempted(std::uint64_t n) { attempted_ += n; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return std::min(failed_, attempted_); }

  private:
    /// Ops whose record differs from the first parallel slice's: counted
    /// once more as failed (an op must give the same result every time).
    static std::uint64_t mismatches(const std::vector<std::uint64_t>& first,
                                    const std::vector<std::uint64_t>& recs) {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < recs.size(); ++i) n += recs[i] != first[i];
        return n;
    }

    Workload& w_;
    const Options& o_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

std::string context_json(const Options& o, bool valid) {
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
        "%g, \"trace\": %d, \"nproc\": %u, \"jobs\": %zu, \"build_type\": "
        "\"%s\", \"cxx_flags\": \"%s\", \"optimized\": %s}}",
        o.workload.c_str(), static_cast<unsigned long long>(o.seed),
        o.seconds, o.trace ? 1 : 0, std::thread::hardware_concurrency(),
        o.jobs, ST_BENCH_BUILD_TYPE, ST_BENCH_CXX_FLAGS,
        valid ? "true" : "false");
    return buf;
}

int run(const Options& o) {
    if (!o.record_reference.empty()) {
        std::vector<std::uint64_t> seeds(kPairPoolSize);
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            seeds[i] = kPairPoolFirstSeed + i;
        }
        CampaignWorkload::record_reference(o.ctx, seeds, o.record_reference);
        return 0;
    }
    const bool valid = optimized_build();
    std::printf("%s\n", context_json(o, valid).c_str());
    if (!valid) {
        std::fprintf(stderr,
                     "st_e2ebench: unoptimised build (%s): the figures below "
                     "are not valid measurements\n",
                     ST_BENCH_CXX_FLAGS);
    }

    std::unique_ptr<Workload> w = make_workload(o.workload, o.ctx);
    PhaseRunner d(*w, o);
    Metrics m;
    if (!o.trace) {
        const PhaseRunner::Phases p = d.phases(o.seconds);
        m.set("ops_per_s", p.par_rate, "1/s");
        m.set("serial_ops_per_s", p.ser_rate, "1/s");
        m.set("setup_s", p.setup_s, "s");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        const double ok = 1.0 - static_cast<double>(d.failed()) /
                                    static_cast<double>(d.attempted());
        m.set("correct_frac", ok, "frac");
        std::fprintf(stderr,
                     "st_e2ebench: %s seed %llu: %llu %ss at jobs %zu, %llu "
                     "at jobs 1, setup %.4f s\n",
                     o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                     static_cast<unsigned long long>(p.n_par), w->op_name(),
                     o.jobs, static_cast<unsigned long long>(p.n_ser),
                     p.setup_s);
    } else {
        const PhaseRunner::Phases p = d.phases(o.seconds / 2);
        SpanLog log;
        const std::uint64_t n = w->traced_ops();
        d.add_attempted(n);
        d.add_failed(w->traced(n, log, m));
        log.write_tsv(o.ctx.workdir + "/spans-" + o.workload + "-" +
                      std::to_string(o.seed) + ".tsv");
        const double root = log.root_us();
        const double attributed = log.attributed_us();
        m.set("bench.unattributed_frac", root > 0 ? 1 - attributed / root : 0,
              "frac");
        const double traced_rate = static_cast<double>(n) / (root * 1e-6);
        m.set("bench.trace_overhead", p.ser_rate / traced_rate, "ratio");
        m.set("bench.trace_gap",
              attributed * 1e-6 / static_cast<double>(n) * p.ser_rate,
              "ratio");
        m.set("runner.parallel_efficiency",
              p.par_rate / (static_cast<double>(o.jobs) * p.ser_rate),
              "ratio");
        const double hits =
            static_cast<double>(gang::Program::registry_hits());
        const double lookups =
            hits + static_cast<double>(gang::Program::registry_misses());
        m.set("gang.registry_hit_ratio", lookups > 0 ? hits / lookups : 0,
              "ratio");
        w->setup_layers(m);
    }
    const bool correct = valid && d.failed() == 0;
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(d.attempted()),
        static_cast<unsigned long long>(d.failed()), m.to_json().c_str());
    return 0;
}

}  // namespace
}  // namespace st::e2e

int main(int argc, char** argv) {
    const st::e2e::Options o = st::e2e::parse(argc, argv);
    try {
        return st::e2e::run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "st_e2ebench: %s\n", e.what());
        return 1;
    }
}
