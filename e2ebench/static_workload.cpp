// static-topo: lint::lint + sva::verify over a fixed spec set. No
// simulation runs here, so it is the no-change control for simulator work.
//
// hring-1024 is left out of the timed op stream: its lint deadlock fixpoint
// is about 95% of a round's time and its working set sits at the L2 size,
// so its rate moved 2x between runs on a shared host. It is replayed once
// per traced run for the hring1024.* rows instead.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "lint/lint.hpp"
#include "runner/runner.hpp"
#include "sva/graph.hpp"
#include "sva/spec_text.hpp"
#include "sva/verify.hpp"
#include "sva/witness.hpp"
#include "topo/topo.hpp"
#include "workload.hpp"

namespace st::e2e {

namespace {

/// Lint verdict and verify verdict of one spec: error and warning counts,
/// obligation count, proven count.
std::uint64_t static_record(const lint::LintReport& lr,
                            const sva::VerifyReport& vr) {
    Fnv f;
    f.u64(lr.errors()).u64(lr.warnings());
    f.u64(vr.obligations.size()).u64(vr.count(sva::Verdict::kProven));
    return f.value();
}

bool same_obligations(const std::vector<sva::Obligation>& a,
                      const std::vector<sva::Obligation>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].pass != b[i].pass || a[i].locus != b[i].locus ||
            a[i].verdict != b[i].verdict || a[i].evidence != b[i].evidence ||
            a[i].replay != b[i].replay ||
            a[i].witness.has_value() != b[i].witness.has_value()) {
            return false;
        }
    }
    return true;
}

class StaticWorkload : public Workload {
  public:
    explicit StaticWorkload(const RunContext& ctx) : ctx_(ctx) {}

    const char* op_name() const override { return "spec"; }

    void setup() override {
        specs_.clear();
        const std::int64_t t0 = now_ns();
        for (const topo::Shape shape :
             {topo::Shape::kMesh, topo::Shape::kTorus, topo::Shape::kStar,
              topo::Shape::kHierRing}) {
            for (const std::size_t sbs : {1024u, 256u}) {
                if (shape == topo::Shape::kHierRing && sbs == 1024) continue;
                specs_.push_back(generate(shape, sbs));
            }
        }
        specs_.push_back(sva::to_spec(sva::load_spec_file(
            ctx_.data_dir + "/ring_of_rings_256.stspec")));
        generate_ms_ = seconds_since(t0) * 1e3;
    }

    /// Op i is spec i mod |set|: whole rounds of the fixed set in a fixed
    /// order. The seed changes nothing here — the set is the workload.
    std::uint64_t op_quantum() const override { return specs_.size(); }

    void run(std::uint64_t n, std::size_t jobs,
             std::vector<std::uint64_t>& records) override {
        records.assign(n, 0);
        runner::sweep(
            n, jobs,
            [&](std::size_t i) {
                const sys::SocSpec& spec = specs_[i % specs_.size()];
                const lint::LintReport lr = lint::lint(spec);
                const sva::VerifyReport vr = sva::verify(spec);
                return static_record(lr, vr);
            },
            [&](std::size_t i, std::uint64_t r) { records[i] = r; });
    }

    bool matches_reference(std::uint64_t, std::uint64_t record) const override {
        // Every spec of the set lints with no error or warning and proves
        // all five sva obligations (docs/TOPOLOGY.md, docs/LINT.md).
        lint::LintReport clean;
        sva::VerifyReport proven;
        proven.obligations.resize(5);
        return record == static_record(clean, proven);
    }

    /// Ten rounds: one round is only tens of milliseconds.
    std::uint64_t traced_ops() const override { return 10 * specs_.size(); }

    std::uint64_t traced(std::uint64_t n, SpanLog& log, Metrics& out) override {
        std::vector<Replay> replays;
        {
            // Mirrors runner::sweep with jobs = 1 over lint::lint and
            // sva::verify.
            SpanLog::Scope call(log, "static.run", 0);
            for (std::uint64_t i = 0; i < n; ++i) {
                replays.push_back(replay(specs_[i % specs_.size()], i, log));
            }
        }
        std::uint64_t mismatches = 0;
        double stations = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            mismatches += replays[i].differs(specs_[i % specs_.size()]);
            stations += replays[i].stations;
        }

        const double ops = static_cast<double>(n);
        const auto per_op_ms = [&](const SpanLog& l, const char* span,
                                   double count) {
            return l.total_us(span) * 1e-3 / count;
        };
        out.set("lint.passes_ms", per_op_ms(log, "lint.passes", ops), "ms");
        out.set("deadlock.rules_ms", per_op_ms(log, "deadlock.rules", ops),
                "ms");
        out.set("sva.lower_ms", per_op_ms(log, "sva.lower", ops), "ms");
        out.set("sva.deadlock_ms", per_op_ms(log, "sva.deadlock", ops), "ms");
        out.set("sva.passes_ms", per_op_ms(log, "sva.passes", ops), "ms");
        out.set("sva.stations", stations / ops, "count");

        // hring-1024 alone, replayed once outside the timed op stream: the
        // deadlock question answered by the lint fixpoint (deadlock.rules)
        // against the sva pipeline.
        SpanLog hring_log;
        const sys::SocSpec hring = generate(topo::Shape::kHierRing, 1024);
        Replay r;
        {
            SpanLog::Scope call(hring_log, "static.run", 0);
            r = replay(hring, 0, hring_log);
        }
        mismatches += r.differs(hring);
        out.set("hring1024.deadlock.rules_ms",
                per_op_ms(hring_log, "deadlock.rules", 1), "ms");
        out.set("hring1024.sva.lower_ms", per_op_ms(hring_log, "sva.lower", 1),
                "ms");
        out.set("hring1024.sva.deadlock_ms",
                per_op_ms(hring_log, "sva.deadlock", 1), "ms");
        out.set("hring1024.sva.passes_ms",
                per_op_ms(hring_log, "sva.passes", 1), "ms");
        return mismatches;
    }

    void setup_layers(Metrics& out) override {
        out.set("topo.generate_ms", generate_ms_, "ms");
    }

  private:
    /// What the replica of one spec's lint + verify produced.
    struct Replay {
        lint::LintReport lint;
        std::vector<sva::Obligation> obligations;
        double stations = 0;

        /// True when the engine's own lint::lint / sva::verify disagree.
        bool differs(const sys::SocSpec& spec) const {
            return lint::lint(spec).to_string() != lint.to_string() ||
                   !same_obligations(sva::verify(spec).obligations,
                                     obligations);
        }
    };

    static sys::SocSpec generate(topo::Shape shape, std::size_t sbs) {
        topo::Options o;
        o.shape = shape;
        o.sbs = sbs;
        o.seed = 7;
        return sva::to_spec(topo::generate(o));
    }

    /// lint::lint and sva::verify (lint/lint.cpp, sva/verify.cpp with
    /// default options) on one spec, one span per pass group.
    static Replay replay(const sys::SocSpec& spec, std::uint64_t op,
                         SpanLog& log) {
        SpanLog::Scope op_span(log, SpanLog::kOp, op);
        Replay out;
        bool endpoints_ok = true;
        {
            SpanLog::Scope s(log, "lint.passes", op);
            endpoints_ok = lint_passes(spec, out.lint);
        }
        if (endpoints_ok) {
            SpanLog::Scope s(log, "deadlock.rules", op);
            lint::check_deadlock_rules(spec, out.lint);
        }
        std::optional<sva::TokenFlowGraph> g;
        {
            SpanLog::Scope s(log, "sva.lower", op);
            g.emplace(sva::lower(spec));
        }
        out.stations = static_cast<double>(g->stations.size());
        const auto add = [&](std::vector<sva::Obligation>&& v) {
            for (auto& ob : v) out.obligations.push_back(std::move(ob));
        };
        {
            SpanLog::Scope s(log, "sva.passes", op);
            add(sva::pass_structure(*g));
        }
        {
            SpanLog::Scope s(log, "sva.deadlock", op);
            add(sva::pass_deadlock(*g));
        }
        {
            SpanLog::Scope s(log, "sva.passes", op);
            add(sva::pass_occupancy(*g));
            add(sva::pass_clocks(*g));
            add(sva::pass_ordering(*g));
        }
        {
            SpanLog::Scope s(log, "sva.cross_check", op);
            cross_check(spec, out.obligations);
        }
        {
            SpanLog::Scope s(log, "static.teardown", op);
            g.reset();
        }
        return out;
    }

    /// lint::lint without its deadlock pass; false when the endpoint check
    /// failed and lint::lint stops there.
    static bool lint_passes(const sys::SocSpec& spec,
                            lint::LintReport& report) {
        lint::check_endpoints(spec, report);
        if (!report.ok()) {
            report.add(lint::Severity::kNote, "ring-endpoints", "spec",
                       "structural errors above: schedule/occupancy passes "
                       "skipped (their arithmetic needs valid indices)");
            return false;
        }
        lint::check_channel_ring(spec, report);
        lint::check_initial_holder(spec, report);
        lint::check_isolated_sb(spec, report);
        lint::check_param_sanity(spec, report);
        lint::check_counter_width(spec, report);
        lint::check_recycle_feasibility(spec, report);
        lint::check_fifo_provisioning(spec, report);
        lint::check_clock_hazards(spec, report);
        return true;
    }

    /// sva::verify's witness replays (default VerifyOptions).
    static void cross_check(const sys::SocSpec& spec,
                            std::vector<sva::Obligation>& obs) {
        const sva::VerifyOptions opt;
        for (sva::Obligation& ob : obs) {
            if (!ob.witness.has_value()) continue;
            sva::Witness w = *ob.witness;
            if (w.cycles == 0) w.cycles = opt.witness_cycles;
            sva::ReplayResult res = sva::replay_witness(spec, w);
            if (ob.witness->cycles == 0) ob.witness->cycles = opt.witness_cycles;
            ob.verdict = res.confirmed ? sva::Verdict::kConfirmed
                                       : sva::Verdict::kRetracted;
            ob.replay = std::move(res.detail);
        }
    }

    RunContext ctx_;
    std::vector<sys::SocSpec> specs_;
    double generate_ms_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_static_workload(const RunContext& ctx) {
    return std::make_unique<StaticWorkload>(ctx);
}

}  // namespace st::e2e
