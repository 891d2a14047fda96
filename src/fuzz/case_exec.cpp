#include "fuzz/case_exec.hpp"

#include <algorithm>
#include <sstream>

namespace st::fuzz {

sim::Time max_effective_period(const sys::SocSpec& spec) {
    sim::Time max_p = 1;
    for (const auto& sb : spec.sbs) {
        max_p = std::max(max_p, sys::effective_period(sb));
    }
    return max_p;
}

sim::Time perturbed_max_effective_period(const sys::SocSpec& nominal,
                                         const sys::DelayConfig& delays) {
    // Mirrors sys::apply: the only delay dimension entering the period is
    // the clock base period, scaled by clock_pct.
    sim::Time max_p = 1;
    for (std::size_t i = 0; i < nominal.sbs.size(); ++i) {
        max_p = std::max(max_p, sys::effective_period(nominal.sbs[i],
                                                      delays.clock_pct[i]));
    }
    return max_p;
}

bool run_bounded(sys::Soc& soc, std::uint64_t n_cycles, sim::Time deadline,
                 std::uint64_t max_events, bool& budget_expired) {
    soc.start();
    // A stop request (the streaming checker classified the run divergent)
    // ends the run with at most the event in flight past the mismatch.
    const auto end =
        soc.advance(sys::Soc::RunGoal{n_cycles, deadline, max_events});
    budget_expired = end == sys::Soc::RunEnd::kBudget;
    return end == sys::Soc::RunEnd::kGoal;
}

std::uint64_t total_protocol_errors(sys::Soc& soc) {
    std::uint64_t n = 0;
    const auto& spec = soc.spec();
    for (std::size_t r = 0; r < spec.rings.size(); ++r) {
        n += soc.ring_node(r, spec.rings[r].sb_a).protocol_errors();
        n += soc.ring_node(r, spec.rings[r].sb_b).protocol_errors();
    }
    for (std::size_t r = 0; r < spec.multi_rings.size(); ++r) {
        for (const auto& m : spec.multi_rings[r].members) {
            n += soc.multi_ring_node(r, m.sb).protocol_errors();
        }
    }
    return n;
}

bool classify_failure(sys::Soc& soc, std::uint64_t faults_fired, bool goal,
                      bool budget_expired,
                      const std::vector<std::string>& violations,
                      const std::vector<std::string>* violations_tail,
                      verify::StreamingChecker* checker, RunReport& r) {
    r.goal_met = goal;
    r.faults_fired = faults_fired;
    r.events = soc.scheduler().events_executed();
    r.protocol_errors = total_protocol_errors(soc);

    const bool tail_violation =
        violations_tail != nullptr && !violations_tail->empty();
    if (!violations.empty() || tail_violation || r.protocol_errors > 0) {
        r.outcome = Outcome::kInvariantViolation;
        if (!violations.empty()) {
            r.detail = violations.front();
        } else if (tail_violation) {
            r.detail = violations_tail->front();
        } else {
            std::ostringstream os;
            os << r.protocol_errors << " token protocol error(s)";
            r.detail = os.str();
        }
        return true;
    }
    if (checker != nullptr && soc.scheduler().stop_requested() &&
        checker->diverged()) {
        // The checker classified the run at its first mismatching event and
        // stopped the scheduler; the remaining cycles could only have
        // changed the verdict through an invariant violation (checked
        // above), which early exit forgoes by being enabled only in
        // fault-free campaigns.
        const verify::TraceDiff diff = checker->finish();
        r.outcome = Outcome::kTraceDivergent;
        r.detail = diff.first_mismatch;
        r.locus = diff.locus;
        return true;
    }
    if (!goal) {
        r.outcome = Outcome::kDeadlocked;
        if (budget_expired) {
            r.detail = "event budget expired (livelock watchdog)";
        } else if (soc.deadlocked()) {
            r.detail = "quiescent with stopped clock(s)";
        } else {
            r.detail = "cycle goal not met before deadline";
        }
        return true;
    }
    return false;
}

RunReport classify_case(sys::Soc& soc, std::uint64_t faults_fired, bool goal,
                        bool budget_expired,
                        const std::vector<std::string>& violations,
                        const std::vector<std::string>* violations_tail,
                        verify::StreamingChecker* checker,
                        const verify::GoldenIndex& golden,
                        const verify::RunCapture& cap) {
    RunReport r;
    if (classify_failure(soc, faults_fired, goal, budget_expired, violations,
                         violations_tail, checker, r)) {
        return r;
    }
    // Verdict: online (O(#SBs) for a deterministic run) or offline over the
    // arrival-ordered capture — the two are bit-identical by construction.
    const verify::TraceDiff diff = checker != nullptr
                                       ? checker->finish()
                                       : verify::diff_capture(golden, cap);
    if (!diff.identical) {
        r.outcome = Outcome::kTraceDivergent;
        r.detail = diff.first_mismatch;
        r.locus = diff.locus;
        return r;
    }
    r.outcome = Outcome::kDeterministic;
    return r;
}

}  // namespace st::fuzz
