#include "case_oracle.hpp"

#include "fuzz/case_exec.hpp"
#include "fuzz/injector.hpp"
#include "sim/random.hpp"
#include "system/delay_config.hpp"
#include "system/invariant_monitor.hpp"
#include "system/soc.hpp"

namespace st::oracle {

using fuzz::CampaignConfig;
using fuzz::FuzzCase;
using fuzz::Injector;
using fuzz::RunReport;

CaseOracle::CaseOracle(const fuzz::Campaign& campaign, Warmup warmup)
    : campaign_(&campaign), warmup_(warmup) {
    if (campaign.config().streaming) {
        // One checker for the worker's lifetime: the per-SB slot table and
        // digest state reset per run (RunCapture::begin_run), but the
        // golden binding and the attachment are paid once. Early exit is
        // decided per case in run().
        checker_ = std::make_unique<verify::StreamingChecker>(
            campaign.golden_index());
        checker_->attach(cap_);
    }
}

RunReport CaseOracle::run(const FuzzCase& c) {
    const fuzz::Campaign& campaign = *campaign_;
    const CampaignConfig& cfg = campaign.config();
    // One spec copy per case (the perturbation), shared with the Soc by
    // pointer — the nominal program spec itself is never copied.
    auto perturbed = std::make_shared<const sys::SocSpec>(
        sys::apply(campaign.spec(), c.delays));
    const sim::Time deadline = fuzz::case_deadline(
        fuzz::max_effective_period(*perturbed), cfg.cycles);

    // The capture is reused across cases, backed by this worker thread's
    // arena. In streaming mode the checker stays subscribed across runs
    // (the Soc ctor's begin_run keeps the attachment), so even the restored
    // warm-up prefix is checked online as it is replayed.
    verify::RunCapture& cap = cap_;
    verify::StreamingChecker* checker = checker_.get();
    if (checker != nullptr) {
        // Early exit is sound only where divergence is the final word: a
        // faulted run must complete, because a later deadlock or invariant
        // violation outranks the divergence (Outcome precedence). Checked
        // per case, not per config — a replayed fault counterexample under
        // a fault-free campaign config still carries faults.
        checker->set_early_exit(cfg.classes.empty() && c.faults.empty());
    }

    std::unique_ptr<sys::Soc> soc_owner;
    std::unique_ptr<Injector> injector_owner;
    std::unique_ptr<sys::InvariantMonitor> monitor_owner;
    if (cfg.warmup_cycles == 0) {
        soc_owner = std::make_unique<sys::Soc>(std::move(perturbed), &cap);
        injector_owner = std::make_unique<Injector>(*soc_owner, c.faults);
        monitor_owner = std::make_unique<sys::InvariantMonitor>(*soc_owner);
    } else {
        // Warm-up path: nominal prefix (forked from the shared snapshot or
        // re-simulated), then the case delta applied live. Both prefix
        // variants land in the identical state — restore-equivalence — so
        // the continuation, and therefore the report, is bit-identical.
        soc_owner =
            std::make_unique<sys::Soc>(campaign.program()->spec_ptr(), &cap);
        if (warmup_ == Warmup::kRestore) {
            soc_owner->restore_snapshot(campaign.warmup_prefix(),
                                        campaign.warmup_prefix_plan());
        } else {
            bool warm_budget = false;
            fuzz::run_bounded(*soc_owner, cfg.warmup_cycles, deadline,
                              cfg.max_events, warm_budget);
            soc_owner->settle();
        }
        injector_owner = std::make_unique<Injector>(*soc_owner, c.faults);
        monitor_owner = std::make_unique<sys::InvariantMonitor>(*soc_owner);
        sys::apply_live(*soc_owner, c.delays);
    }
    sys::Soc& soc = *soc_owner;
    Injector& injector = *injector_owner;
    sys::InvariantMonitor& monitor = *monitor_owner;

    bool budget_expired = false;
    const bool goal = fuzz::run_bounded(soc, cfg.cycles, deadline,
                                        cfg.max_events, budget_expired);
    return fuzz::classify_case(soc, injector.fired(), goal, budget_expired,
                               monitor.violations(), nullptr, checker,
                               campaign.golden_index(), cap);
}

fuzz::CampaignSummary run_campaign(
    const fuzz::Campaign& campaign, std::uint64_t n_runs, std::uint64_t seed,
    runner::Shard shard, Warmup warmup,
    const std::function<void(std::size_t, const FuzzCase&,
                             const RunReport&)>& on_run) {
    CaseOracle oracle(campaign, warmup);
    fuzz::CampaignSummary s;
    sim::Rng rng(seed);
    for (std::uint64_t i = 0; i < n_runs; ++i) {
        const FuzzCase c = campaign.random_case(rng);
        if (!shard.selects(i)) continue;
        const RunReport r = oracle.run(c);
        ++s.runs;
        ++s.by_outcome[static_cast<std::size_t>(r.outcome)];
        if (r.faults_fired > 0) ++s.runs_with_fault_fired;
        if (r.outcome != fuzz::Outcome::kDeterministic) {
            s.add_failure(i, c, r);
        }
        if (on_run) on_run(static_cast<std::size_t>(i), c, r);
    }
    return s;
}

}  // namespace st::oracle
