// fuzz-pair-faults and campaign-mesh64: fuzz::Campaign::run workloads.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "campaign_workload.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/case_exec.hpp"
#include "fuzz/checkpoint.hpp"
#include "fuzz/injector.hpp"
#include "gang/program.hpp"
#include "sva/spec_text.hpp"
#include "system/delay_config.hpp"
#include "system/invariant_monitor.hpp"
#include "system/testbenches.hpp"
#include "topo/topo.hpp"

namespace st::e2e {

namespace {

constexpr const char* kRefHeader = "config pair cycles=100 faults=all "
                                   "max_faults=2 block=";

std::vector<fuzz::FaultClass> all_fault_classes() {
    std::vector<fuzz::FaultClass> all;
    for (std::size_t i = 0; i < fuzz::kNumFaultClasses; ++i) {
        all.push_back(static_cast<fuzz::FaultClass>(i));
    }
    return all;
}

}  // namespace

CampaignWorkload::CampaignWorkload(Kind kind, const RunContext& ctx,
                                   bool with_reference)
    : kind_(kind), ctx_(ctx) {
    cfg_.spec_name = kind == Kind::kPairFaults ? "pair" : "mesh64";
    if (kind == Kind::kPairFaults) {
        cfg_.cycles = 100;
        cfg_.classes = all_fault_classes();
        checkpoint_ = ctx.workdir + "/fuzz-pair-faults." +
                      std::to_string(::getpid()) + ".ckpt";
        if (with_reference) load_reference();
    } else {
        cfg_.cycles = 60;
    }
}

CampaignWorkload::~CampaignWorkload() {
    if (!checkpoint_.empty()) {
        std::remove(checkpoint_.c_str());
        std::remove((checkpoint_ + ".tmp").c_str());
    }
}

std::string CampaignWorkload::reference_path(const std::string& dir) {
    return dir + "/fuzz-pair-faults.ref";
}

void CampaignWorkload::load_reference() {
    const std::string path = reference_path(ctx_.reference_dir);
    std::ifstream is(path);
    if (!is) throw std::runtime_error("cannot read reference " + path);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#') continue;
        if (line.rfind("config ", 0) == 0) {
            if (line != kRefHeader + std::to_string(kBlock)) {
                throw std::runtime_error("reference " + path +
                                         " was recorded for another "
                                         "configuration: " + line);
            }
            continue;
        }
        std::istringstream ls(line);
        std::string tag, hex;
        std::uint64_t seed = 0;
        ls >> tag >> seed >> hex;
        if (tag != "seed" || hex.size() != 4 * kBlock) {
            throw std::runtime_error("malformed reference line in " + path);
        }
        std::vector<std::uint16_t> recs(kBlock);
        for (std::size_t i = 0; i < kBlock; ++i) {
            recs[i] = static_cast<std::uint16_t>(
                std::stoul(hex.substr(4 * i, 4), nullptr, 16));
        }
        pool_seeds_.push_back(seed);
        reference_.push_back(std::move(recs));
    }
    if (pool_seeds_.empty()) {
        throw std::runtime_error("reference " + path + " holds no blocks");
    }
}

void CampaignWorkload::record_reference(const RunContext& ctx,
                                        const std::vector<std::uint64_t>& seeds,
                                        const std::string& path) {
    CampaignWorkload w(Kind::kPairFaults, ctx, /*with_reference=*/false);
    w.setup();
    std::ofstream os(path, std::ios::binary);
    os << "# Pinned records of fuzz-pair-faults: per campaign seed, the 16-bit\n"
          "# fold of every case's canonical record (outcome, goal_met,\n"
          "# faults_fired, protocol_errors, mismatch locus), in case order.\n"
          "# Written by st_e2ebench --record-reference.\n";
    os << kRefHeader << kBlock << "\n";
    char buf[8];
    for (const std::uint64_t seed : seeds) {
        std::vector<std::uint64_t> recs(kBlock);
        w.campaign_->run(
            kBlock, seed,
            [&](std::size_t i, const fuzz::FuzzCase&, const fuzz::RunReport& r) {
                recs[i] = case_record(r);
            },
            ctx.jobs);
        os << "seed " << seed << ' ';
        for (const std::uint64_t r : recs) {
            std::snprintf(buf, sizeof buf, "%04x", fold16(r));
            os << buf;
        }
        os << '\n';
    }
    if (!os) throw std::runtime_error("cannot write " + path);
}

sys::SocSpec CampaignWorkload::make_spec() const {
    if (kind_ == Kind::kPairFaults) return sys::make_named_spec("pair");
    topo::Options o;
    o.shape = topo::Shape::kMesh;
    o.sbs = 64;
    o.seed = 7;
    return sva::to_spec(topo::generate(o));
}

void CampaignWorkload::setup() {
    campaign_.reset();
    const std::int64_t t0 = now_ns();
    sys::SocSpec spec = make_spec();
    const std::int64_t t1 = now_ns();
    campaign_ = std::make_unique<fuzz::Campaign>(cfg_, std::move(spec));
    generate_ms_ = static_cast<double>(t1 - t0) * 1e-6;
    golden_ms_ = seconds_since(t1) * 1e3;
}

std::vector<CampaignWorkload::Block> CampaignWorkload::blocks(
    std::uint64_t n) const {
    std::vector<Block> out;
    if (kind_ != Kind::kPairFaults) {
        // One closed-loop campaign: op i is case i of the seed's stream.
        out.push_back(Block{ctx_.seed, 0, n});
        return out;
    }
    // Fixed-size blocks of the seed's pool campaign: op i is case
    // i % kBlock of it.
    const std::uint64_t seed = pool_seeds_[ctx_.seed % pool_seeds_.size()];
    for (std::uint64_t b = 0; b * kBlock < n; ++b) {
        out.push_back(Block{seed, b * kBlock,
                            std::min<std::uint64_t>(kBlock, n - b * kBlock)});
    }
    return out;
}

fuzz::CampaignControl CampaignWorkload::control() const {
    fuzz::CampaignControl ctl;
    if (!checkpoint_.empty()) {
        ctl.checkpoint_path = checkpoint_;
        ctl.checkpoint_every = kCheckpointEvery;
    }
    return ctl;
}

void CampaignWorkload::run(std::uint64_t n, std::size_t jobs,
                           std::vector<std::uint64_t>& records) {
    records.assign(n, 0);
    for (const Block& b : blocks(n)) {
        campaign_->run(
            b.n, b.campaign_seed,
            [&](std::size_t i, const fuzz::FuzzCase&, const fuzz::RunReport& r) {
                records[b.first + i] = case_record(r);
            },
            jobs, control());
    }
}

bool CampaignWorkload::matches_reference(std::uint64_t i,
                                         std::uint64_t record) const {
    if (kind_ != Kind::kPairFaults) {
        // Fault-free synchro-token campaign: every case must be
        // deterministic and reach the goal, whatever the seed.
        fuzz::RunReport expect;
        expect.outcome = fuzz::Outcome::kDeterministic;
        expect.goal_met = true;
        return record == case_record(expect);
    }
    const std::size_t k = ctx_.seed % pool_seeds_.size();
    return fold16(record) == reference_[k][i % kBlock];
}

std::uint64_t CampaignWorkload::traced_ops() const {
    return kind_ == Kind::kPairFaults ? 2 * kBlock : 96;
}

struct CampaignWorkload::Replay {
    std::vector<fuzz::FuzzCase> cases;
    std::vector<fuzz::RunReport> reports;
    std::vector<std::uint64_t> records;  ///< what run()'s on_run computes
    SimStats stats;
    double events = 0;
    double pool = 0;
    double checkpoint_bytes = 0;
};

CampaignWorkload::Replay CampaignWorkload::replay(std::uint64_t n,
                                                  SpanLog& log,
                                                  EventClassProbe* probe) {
    const fuzz::Campaign& campaign = *campaign_;
    const fuzz::CampaignConfig& cfg = campaign.config();
    Replay out;
    for (const Block& b : blocks(n)) {
        // Mirrors Campaign::run with jobs = 1 and CaseRunner::run per case
        // (fuzz/campaign.cpp), one span per public call.
        SpanLog::Scope call(log, "campaign.run", b.first);
        const fuzz::CampaignControl ctl = control();
        std::vector<fuzz::FuzzCase> cases;
        fuzz::CampaignKey key;
        {
            SpanLog::Scope s(log, "fuzz.draw", b.first);
            sim::Rng rng(b.campaign_seed);
            for (std::uint64_t i = 0; i < b.n; ++i) {
                cases.push_back(campaign.random_case(rng));
            }
            key = fuzz::make_campaign_key(cfg, b.campaign_seed, b.n,
                                          ctl.shard);
        }
        fuzz::CampaignSummary summary;
        std::uint64_t since_image = 0;
        std::optional<verify::RunCapture> cap;
        std::unique_ptr<verify::StreamingChecker> checker;
        {
            SpanLog::Scope s(log, "fuzz.runner_ctor", b.first);
            cap.emplace();
            checker = std::make_unique<verify::StreamingChecker>(
                campaign.golden_index());
            checker->attach(*cap);
        }
        for (std::uint64_t k = 0; k < b.n; ++k) {
            const std::uint64_t op = b.first + k;
            const fuzz::FuzzCase& c = cases[k];
            fuzz::RunReport r;
            {
                SpanLog::Scope op_span(log, SpanLog::kOp, op);
                std::unique_ptr<sys::Soc> soc;
                std::unique_ptr<fuzz::Injector> injector;
                std::unique_ptr<sys::InvariantMonitor> monitor;
                sim::Time deadline = 0;
                {
                    SpanLog::Scope s(log, "system.elaborate", op);
                    auto perturbed = std::make_shared<const sys::SocSpec>(
                        sys::apply(campaign.spec(), c.delays));
                    deadline = fuzz::case_deadline(
                        fuzz::max_effective_period(*perturbed), cfg.cycles);
                    checker->set_early_exit(cfg.classes.empty() &&
                                            c.faults.empty());
                    soc = std::make_unique<sys::Soc>(std::move(perturbed),
                                                     &*cap);
                }
                {
                    SpanLog::Scope s(log, "fuzz.inject", op);
                    injector = std::make_unique<fuzz::Injector>(*soc, c.faults);
                    monitor = std::make_unique<sys::InvariantMonitor>(*soc);
                }
                if (probe) probe->attach(*soc);
                {
                    // run_bounded starts the Soc first; starting it here,
                    // after the injector as there, keeps the event order.
                    SpanLog::Scope s(log, "system.start", op);
                    soc->start();
                }
                bool goal = false, budget = false;
                {
                    SpanLog::Scope s(log, "sim.simulate", op);
                    goal = fuzz::run_bounded(*soc, cfg.cycles, deadline,
                                             cfg.max_events, budget);
                }
                {
                    SpanLog::Scope s(log, "bench.stats", op);
                    if (probe) probe->finish_run(*soc);
                    out.stats.add(*soc);
                    out.events += static_cast<double>(
                        soc->scheduler().events_executed());
                    out.pool += static_cast<double>(
                        soc->scheduler().pool_capacity());
                }
                {
                    SpanLog::Scope s(log, "fuzz.classify", op);
                    r = fuzz::classify_case(*soc, injector->fired(), goal,
                                            budget, monitor->violations(),
                                            nullptr, checker.get(),
                                            campaign.golden_index(), *cap);
                }
                {
                    SpanLog::Scope s(log, "system.teardown", op);
                    monitor.reset();
                    injector.reset();
                    soc.reset();
                }
            }
            const auto o = static_cast<std::size_t>(r.outcome);
            {
                SpanLog::Scope s(log, "runner.reduce", op);
                ++summary.runs;
                ++summary.by_outcome[o];
                if (r.faults_fired > 0) ++summary.runs_with_fault_fired;
                if (r.outcome != fuzz::Outcome::kDeterministic) {
                    summary.add_failure(k, c, r);
                }
                out.records.push_back(case_record(r));
            }
            if (!ctl.checkpoint_path.empty() &&
                (++since_image >= ctl.checkpoint_every || k + 1 == b.n)) {
                SpanLog::Scope s(log, "fuzz.checkpoint_write", op);
                fuzz::save_progress_file(
                    fuzz::CampaignProgress{key, k + 1, summary},
                    ctl.checkpoint_path);
                since_image = 0;
            }
            out.reports.push_back(r);
        }
        {
            // The engine's per-call context dies with the call.
            SpanLog::Scope s(log, "fuzz.runner_dtor", b.first);
            checker.reset();
            cap.reset();
        }
        if (!ctl.checkpoint_path.empty()) {
            std::ifstream f(ctl.checkpoint_path,
                            std::ios::binary | std::ios::ate);
            out.checkpoint_bytes = static_cast<double>(f.tellg());
        }
        out.cases.insert(out.cases.end(), cases.begin(), cases.end());
    }
    return out;
}

std::uint64_t CampaignWorkload::traced(std::uint64_t n, SpanLog& log,
                                       Metrics& out) {
    const Replay rep = replay(n, log, nullptr);

    // The replica must agree with the engine's single-case entry point.
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < rep.reports.size(); ++i) {
        if (!(campaign_->run_case(rep.cases[i]) == rep.reports[i])) {
            ++mismatches;
        }
    }
    // Event classes come from a second, untimed pass over the same cases
    // with the probe installed, so its cost enters no layer span; a
    // pass-through probe must not change a single report. The fault
    // injector owns the interceptor on faulted runs: no probe there.
    EventClassProbe probe;
    const bool probed = kind_ != Kind::kPairFaults;
    if (probed) {
        SpanLog scratch;
        const Replay again = replay(n, scratch, &probe);
        for (std::size_t i = 0; i < rep.reports.size(); ++i) {
            if (!(again.reports[i] == rep.reports[i])) ++mismatches;
        }
    }

    const double ops = static_cast<double>(n);
    const auto per_op = [&](const char* span) {
        return log.total_us(span) / ops;
    };
    out.set("system.elaborate_us",
            per_op("system.elaborate") + per_op("system.start"), "us");
    out.set("system.teardown_us", per_op("system.teardown"), "us");
    out.set("fuzz.draw_us", per_op("fuzz.draw"), "us");
    out.set("fuzz.inject_us", per_op("fuzz.inject"), "us");
    out.set("fuzz.classify_us", per_op("fuzz.classify"), "us");
    // The end-of-run verdict of a campaign case is classify_case: the
    // streaming checker's finish plus outcome precedence.
    out.set("verify.check_us", per_op("fuzz.classify"), "us");
    // Case path time per outcome: each op span minus its instrumentation.
    std::vector<double> op_us(n, 0.0);
    for (const Span& sp : log.spans()) {
        if (std::strcmp(sp.name, SpanLog::kOp) == 0) {
            op_us[sp.op] += sp.us();
        } else if (SpanLog::is_instrumentation(sp.name)) {
            op_us[sp.op] -= sp.us();
        }
    }
    double case_us[fuzz::kNumOutcomes] = {};
    std::uint64_t case_n[fuzz::kNumOutcomes] = {};
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto o = static_cast<std::size_t>(rep.reports[i].outcome);
        case_us[o] += op_us[i];
        ++case_n[o];
    }
    const char* kCaseMetric[fuzz::kNumOutcomes] = {
        "fuzz.case_us.deterministic", "fuzz.case_us.divergent",
        "fuzz.case_us.deadlock", "fuzz.case_us.invariant"};
    for (std::size_t o = 0; o < fuzz::kNumOutcomes; ++o) {
        out.set(kCaseMetric[o],
                case_n[o] ? case_us[o] / static_cast<double>(case_n[o]) : 0,
                "us");
    }
    const std::size_t writes = log.count("fuzz.checkpoint_write");
    out.set("fuzz.checkpoint_write_us",
            writes ? log.total_us("fuzz.checkpoint_write") /
                         static_cast<double>(writes)
                   : 0,
            "us");
    out.set("fuzz.checkpoint_bytes", rep.checkpoint_bytes, "bytes");
    out.set("runner.reduce_us", per_op("runner.reduce"), "us");
    const double sim_us = log.total_us("sim.simulate");
    out.set("sim.simulate_us", sim_us / ops, "us");
    out.set("sim.events_per_op", rep.events / ops, "count");
    out.set("sim.events_per_s",
            sim_us > 0 ? rep.events / (sim_us * 1e-6) : 0, "1/s");
    out.set("sim.pool_capacity", rep.pool / ops, "count");
    put_event_classes(probed ? &probe : nullptr, n, out);
    rep.stats.put(n, out);
    return mismatches;
}

void CampaignWorkload::setup_layers(Metrics& out) {
    out.set("topo.generate_ms", generate_ms_, "ms");
    out.set("verify.golden_ms", golden_ms_, "ms");
    sim::Rng rng(ctx_.seed);
    put_rewind_layers(campaign_->spec(), campaign_->random_case(rng).delays,
                      kind_ == Kind::kPairFaults ? 200 : 50, out);
}

}  // namespace st::e2e
