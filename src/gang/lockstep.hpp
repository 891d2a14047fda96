#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "system/soc.hpp"
#include "verify/streaming.hpp"

namespace st::gang {

/// Sentinel for LaneGoal::budget_start: measure the event budget from the
/// lane's events_executed() at lockstep entry (the scalar run_bounded
/// datum). A peeled lane's finisher passes the *original* datum instead so
/// the livelock watchdog spans the whole case, not just the suffix.
inline constexpr std::uint64_t kBudgetFromEntry = ~0ull;

/// One lane's run goal within a lockstep block.
struct LaneGoal {
    sys::Soc* soc = nullptr;
    /// Cycle goal: run until every SB executed at least this many local
    /// cycles (absolute count — a warm-started lane keeps its prefix).
    std::uint64_t cycles = 0;
    /// Absolute simulated-time deadline (same meaning as Soc::run_cycles).
    sim::Time deadline = 0;
    /// Livelock watchdog: events beyond `budget_start` before giving up.
    std::uint64_t max_events = ~0ull;
    std::uint64_t budget_start = kBudgetFromEntry;
    /// When set (and `checker` given), a lane observed divergent mid-run is
    /// withdrawn from the gang at the next window boundary and reported
    /// `peeled` for the caller to finish on the scalar engine via snapshot
    /// handoff. Leave false where divergence either stops the run by itself
    /// (fault-free early exit) or cannot outrank the final verdict.
    bool peel_on_divergence = false;
    const verify::StreamingChecker* checker = nullptr;
};

/// What ended a lane's participation in the lockstep block.
struct LaneStatus {
    bool goal_met = false;        ///< every SB reached the cycle goal
    bool budget_expired = false;  ///< livelock watchdog fired
    bool stopped_early = false;   ///< cooperative scheduler stop
    bool peeled = false;          ///< withdrawn on divergence (still running)
    /// The events_executed() datum the budget was measured from — the
    /// handoff value a peeled lane's scalar finisher must continue with.
    std::uint64_t budget_start = 0;
};

/// Advance every lane to completion (or peel) in lockstep: round-robin over
/// the active lanes, each visit executing up to `window` events of that
/// lane's private scheduler. Per lane this is the scalar bounded cycle loop
/// itself (`sys::Soc::advance`: stop request, quiescence, deadline, event
/// budget before every event, the laggard-SB goal scan), just sliced into
/// windows; since lanes share no simulator state, the
/// interleaving cannot alter any lane's event sequence, and each lane stops
/// at the identical event boundary the scalar engine would have stopped at.
///
/// The lockstep schedule is what turns W scalar runs into one cache-resident
/// sweep: within a window one lane's program/state stays hot, and across
/// windows all lanes advance through the same simulated-time region of the
/// same spec, touching the same golden prefix (docs/PERF.md).
///
/// Lanes must be started (gang::Lane guarantees this). A goal with
/// `soc == nullptr` is skipped (its status stays default) so callers can
/// pass partially filled blocks.
std::vector<LaneStatus> run_lockstep(const std::vector<LaneGoal>& goals,
                                     std::uint64_t window = 2048);

}  // namespace st::gang
