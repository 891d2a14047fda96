#include "gang/lockstep.hpp"

namespace st::gang {

namespace {

/// Per-lane progress the round-robin keeps between visits.
struct Active {
    const LaneGoal* goal = nullptr;
    LaneStatus* status = nullptr;
    std::size_t lag = 0;  ///< first SB not yet at the cycle goal
    bool done = false;
};

/// Advance one lane by at most `window` events; sets `done` when the lane
/// reached a terminal condition. This is the scalar bounded cycle loop
/// (sys::Soc::advance) sliced into windows: interrupting at a window
/// boundary and resuming later re-evaluates the same conditions in the same
/// order, so the terminal event boundary is identical.
void advance(Active& a, std::uint64_t window) {
    using End = sys::Soc::RunEnd;
    const LaneGoal& g = *a.goal;
    const End end = g.soc->advance(
        sys::Soc::RunGoal{g.cycles, g.deadline, g.max_events,
                          a.status->budget_start},
        a.lag, window);
    if (end == End::kWindow) return;  // yield to the next lane
    a.done = true;
    a.status->goal_met = end == End::kGoal;
    a.status->stopped_early = end == End::kStopped;
    a.status->budget_expired = end == End::kBudget;
}

}  // namespace

std::vector<LaneStatus> run_lockstep(const std::vector<LaneGoal>& goals,
                                     std::uint64_t window) {
    if (window == 0) window = 1;
    std::vector<LaneStatus> statuses(goals.size());
    std::vector<Active> act(goals.size());
    for (std::size_t i = 0; i < goals.size(); ++i) {
        act[i].goal = &goals[i];
        act[i].status = &statuses[i];
        if (goals[i].soc == nullptr) {
            act[i].done = true;
            continue;
        }
        goals[i].soc->start();  // idempotent; scalar run_bounded parity
        statuses[i].budget_start =
            goals[i].budget_start != kBudgetFromEntry
                ? goals[i].budget_start
                : goals[i].soc->scheduler().events_executed();
    }

    for (bool any = true; any;) {
        any = false;
        for (auto& a : act) {
            if (a.done) continue;
            // Peel check at the window boundary only: by then the lane may
            // have run a few events past the first mismatch, which is
            // harmless — the scalar finisher executes the identical suffix
            // from wherever the handoff lands, so the final state, counters
            // and verdict do not depend on the peel point.
            if (a.goal->peel_on_divergence && a.goal->checker != nullptr &&
                a.goal->checker->diverged()) {
                a.done = true;
                a.status->peeled = true;
                continue;
            }
            advance(a, window);
            any = true;
        }
    }
    return statuses;
}

}  // namespace st::gang
