// sweep-mesh1024: verify::DeterminismHarness::sweep over joint delay
// perturbations of a generated 1024-SB mesh (the st_topo --sweep shape).

#include <memory>
#include <optional>

#include "sim/random.hpp"
#include "sva/spec_text.hpp"
#include "system/delay_config.hpp"
#include "topo/topo.hpp"
#include "verify/determinism.hpp"
#include "workload.hpp"

namespace st::e2e {

namespace {

/// Compared window (local cycles) and simulated horizon: st_topo's default
/// --cycles 50 plus its 40-cycle run-out.
constexpr std::uint64_t kCycles = 50;
constexpr std::uint64_t kHorizon = kCycles + 40;
const sim::Time kDeadline = sim::ms(2000);

/// st_topo's joint perturbation: every delay dimension drawn from
/// {50, 75, 150, 200} percent of nominal, clocks clamped to >= 75 percent.
sys::DelayConfig perturb(const sys::SocSpec& spec, std::uint64_t seed) {
    auto cfg = sys::DelayConfig::nominal(spec);
    sim::Rng rng(seed);
    const unsigned percents[4] = {50, 75, 150, 200};
    for (std::size_t d = 0; d < cfg.dimensions(); ++d) {
        const bool is_clock = d >= cfg.dimensions() - cfg.clock_pct.size();
        const unsigned pct = percents[rng.next_below(4)];
        cfg.set(d, is_clock ? std::max(75u, pct) : pct);
    }
    return cfg;
}

class SweepWorkload : public Workload {
  public:
    using Harness = verify::DeterminismHarness<sys::DelayConfig>;

    explicit SweepWorkload(const RunContext& ctx)
        : ctx_(ctx), draw_(ctx.seed) {}

    const char* op_name() const override { return "perturbation"; }

    void setup() override {
        harness_.reset();
        spec_.reset();
        const std::int64_t t0 = now_ns();
        topo::Options o;
        o.shape = topo::Shape::kMesh;
        o.sbs = 1024;
        o.seed = 42;
        spec_ = std::make_shared<const sys::SocSpec>(
            sva::to_spec(topo::generate(o)));
        const std::int64_t t1 = now_ns();
        const sys::SocSpec* spec = spec_.get();
        harness_ = std::make_unique<Harness>(
            Harness::LiveRunner([spec](const sys::DelayConfig& p,
                                       verify::RunCapture& cap) {
                sys::Soc soc(std::make_shared<const sys::SocSpec>(
                                 sys::apply(*spec, p)),
                             &cap);
                soc.run_cycles(kHorizon, kDeadline);
            }),
            sys::DelayConfig::nominal(*spec_), kCycles);
        harness_->capture_nominal();
        generate_ms_ = static_cast<double>(t1 - t0) * 1e-6;
        golden_ms_ = seconds_since(t1) * 1e3;
    }

    void prepare(std::uint64_t n) override {
        while (inputs_.size() < n) {
            inputs_.push_back(perturb(*spec_, draw_.next_u64()));
        }
    }

    void run(std::uint64_t n, std::size_t jobs,
             std::vector<std::uint64_t>& records) override {
        prepare(n);
        const std::vector<sys::DelayConfig> batch(inputs_.begin(),
                                                  inputs_.begin() + n);
        // sweep() reduces to counts. When every perturbation matched, each
        // op's record is the match record; otherwise each op is re-checked
        // on its own to find which ones failed.
        const verify::SweepResult r = harness_->sweep(batch, jobs);
        records.assign(n, sweep_record(verify::TraceDiff{}));
        if (r.mismatches > 0 || r.runs != n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                records[i] = sweep_record(harness_->check(batch[i]));
            }
        }
    }

    bool matches_reference(std::uint64_t, std::uint64_t record) const override {
        // Synchro-token determinism: every perturbation matches the golden.
        return record == sweep_record(verify::TraceDiff{});
    }

    std::uint64_t traced_ops() const override { return 6; }

    std::uint64_t traced(std::uint64_t n, SpanLog& log, Metrics& out) override {
        const Replay rep = replay(n, log, nullptr);
        std::uint64_t mismatches = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            const verify::TraceDiff ref = harness_->check(inputs_[i]);
            if (sweep_record(ref) != sweep_record(rep.diffs[i]) ||
                ref.first_mismatch != rep.diffs[i].first_mismatch) {
                ++mismatches;
            }
        }
        // Event classes come from a second, untimed pass with the probe
        // installed, so its cost enters no layer span; a pass-through probe
        // must change neither a verdict nor an event count.
        EventClassProbe probe;
        {
            SpanLog scratch;
            const Replay again = replay(n, scratch, &probe);
            for (std::uint64_t i = 0; i < n; ++i) {
                if (sweep_record(again.diffs[i]) !=
                    sweep_record(rep.diffs[i])) {
                    ++mismatches;
                }
            }
            if (again.events != rep.events) mismatches += n;
        }

        const double ops = static_cast<double>(n);
        const auto per_op = [&](const char* span) {
            return log.total_us(span) / ops;
        };
        out.set("system.elaborate_us",
                per_op("system.elaborate") + per_op("system.start"), "us");
        out.set("system.teardown_us", per_op("system.teardown"), "us");
        out.set("verify.check_us", per_op("verify.check"), "us");
        out.set("runner.reduce_us", per_op("runner.reduce"), "us");
        const double sim_us = log.total_us("sim.simulate");
        out.set("sim.simulate_us", sim_us / ops, "us");
        out.set("sim.events_per_op", rep.events / ops, "count");
        out.set("sim.events_per_s",
                sim_us > 0 ? rep.events / (sim_us * 1e-6) : 0, "1/s");
        out.set("sim.pool_capacity", rep.pool / ops, "count");
        put_event_classes(&probe, n, out);
        rep.stats.put(n, out);
        return mismatches;
    }

    void setup_layers(Metrics& out) override {
        out.set("topo.generate_ms", generate_ms_, "ms");
        out.set("verify.golden_ms", golden_ms_, "ms");
        prepare(1);
        put_rewind_layers(*spec_, inputs_[0], 10, out);
    }

  private:
    struct Replay {
        std::vector<verify::TraceDiff> diffs;
        SimStats stats;
        double events = 0;
        double pool = 0;
    };

    /// Serial replica of sweep() over ops [0, n) with a span around every
    /// public call; `probe` (if set) is installed on every run's Soc.
    Replay replay(std::uint64_t n, SpanLog& log, EventClassProbe* probe) {
        prepare(n);
        Replay out;
        // Mirrors DeterminismHarness::sweep with jobs = 1: one SweepContext
        // (capture + attached early-exit checker), then run_one per
        // perturbation, reduced in order.
        SpanLog::Scope call(log, "sweep.run", 0);
        std::optional<verify::RunCapture> cap;
        std::unique_ptr<verify::StreamingChecker> checker;
        {
            SpanLog::Scope s(log, "verify.sweep_ctx", 0);
            cap.emplace();
            checker = std::make_unique<verify::StreamingChecker>(
                harness_->golden_index(),
                verify::StreamingOptions{.early_exit = true});
            checker->attach(*cap);
        }
        verify::SweepResult result;
        for (std::uint64_t i = 0; i < n; ++i) {
            verify::TraceDiff d;
            {
                SpanLog::Scope op(log, SpanLog::kOp, i);
                std::unique_ptr<sys::Soc> soc;
                {
                    SpanLog::Scope s(log, "system.elaborate", i);
                    cap->begin_run();
                    soc = std::make_unique<sys::Soc>(
                        std::make_shared<const sys::SocSpec>(
                            sys::apply(*spec_, inputs_[i])),
                        &*cap);
                }
                if (probe) probe->attach(*soc);
                {
                    // run_cycles starts the Soc first; nothing is scheduled
                    // in between, so starting it here keeps the event order.
                    SpanLog::Scope s(log, "system.start", i);
                    soc->start();
                }
                {
                    SpanLog::Scope s(log, "sim.simulate", i);
                    soc->run_cycles(kHorizon, kDeadline);
                }
                {
                    SpanLog::Scope s(log, "bench.stats", i);
                    if (probe) probe->finish_run(*soc);
                    out.stats.add(*soc);
                    out.events += static_cast<double>(
                        soc->scheduler().events_executed());
                    out.pool += static_cast<double>(
                        soc->scheduler().pool_capacity());
                }
                {
                    SpanLog::Scope s(log, "system.teardown", i);
                    soc.reset();
                }
                {
                    SpanLog::Scope s(log, "verify.check", i);
                    d = checker->finish();
                }
            }
            {
                SpanLog::Scope s(log, "runner.reduce", i);
                ++result.runs;
                if (d.identical) {
                    ++result.matches;
                } else {
                    ++result.mismatches;
                    result.add_example(i, d.first_mismatch);
                }
            }
            out.diffs.push_back(std::move(d));
        }
        SpanLog::Scope s(log, "verify.sweep_ctx_dtor", 0);
        checker.reset();
        cap.reset();
        return out;
    }

    RunContext ctx_;
    sim::Rng draw_;  ///< per-op perturbation seeds, in op order
    std::shared_ptr<const sys::SocSpec> spec_;
    std::unique_ptr<Harness> harness_;
    std::vector<sys::DelayConfig> inputs_;
    double generate_ms_ = 0;
    double golden_ms_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_workload(const RunContext& ctx) {
    return std::make_unique<SweepWorkload>(ctx);
}

}  // namespace st::e2e
