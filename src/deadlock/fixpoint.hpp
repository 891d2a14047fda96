#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "sim/time.hpp"

namespace st::dl {

/// Marks "no station" in StallFixpoint::pred and ::still_growing.
inline constexpr std::size_t kNoStation =
    std::numeric_limits<std::size_t>::max();

/// One station of the transitive-stall fixpoint (DESIGN.md §6): a two-node
/// ring endpoint, or one (member, other-member) pair of a multi-ring.
struct StallStation {
    std::size_t ring = 0;       ///< unified id: rings, then multi-rings offset
    std::size_t sb = 0;         ///< SB hosting this station
    std::size_t peer_sb = 0;    ///< SB whose stall this station inherits
    sim::Time away = 0;         ///< nominal token absence, ps
    sim::Time provisioned = 0;  ///< R * T_local: wait budgeted after passing
};

/// Outcome of stall_fixpoint().
struct StallFixpoint {
    /// Per-station stall bound: the least fixpoint when converged, an
    /// unspecified under-approximation of the unbounded one when diverged.
    std::vector<sim::Time> stall;
    /// Per station, the coupled station that set its stall at its last
    /// growth (lowest index among ties), or kNoStation.
    std::vector<std::size_t> pred;
    /// Sweeps run, the last of which changed nothing unless diverged.
    std::size_t rounds = 0;
    bool diverged = false;
    /// When diverged, the lowest-index station that grew in the last round.
    std::size_t still_growing = kNoStation;
};

namespace detail {

/// The largest stall among some set of stations, lowest index on ties.
struct Best {
    sim::Time stall = 0;
    std::size_t station = kNoStation;

    bool beaten_by(sim::Time s, std::size_t i) const {
        return s > stall || (s == stall && i < station);
    }
};

/// Per-SB summary: `top` over all of the SB's stations, `other` over those
/// on rings other than `top_ring`. cross(n) for a station on ring r is
/// `top` unless r == top_ring, then `other`.
struct SbStall {
    Best top;
    std::size_t top_ring = kNoStation;
    Best other;
};

}  // namespace detail

/// The transitive-stall fixpoint shared by `dl::check_rules` (and with it
/// lint's deadlock-fixpoint pass) and `sva-deadlock`:
///
///   stall(n) = max(0, away(n) + cross(n) - provisioned(n))
///   cross(n) = max stall(m) over stations m in n's peer SB on rings other
///              than n's own.
///
/// Excluding n's own ring matters: a node waiting on ring r cannot delay
/// ring r's token (it just passed it), so a single-ring pair never
/// deadlocks. Stations are swept in index order and updated in place.
///
/// Every stall value is the deficit sum of a coupling walk. Without a
/// positive-deficit cycle the least fixpoint is the best simple walk, at
/// most |V| stations long, so a converging sweep ends by round |V|+1. A
/// change in round |V|+2 therefore certifies divergence (deadlock risk);
/// the kernel never runs more than |V|+2 rounds.
///
/// `cross` is read from a per-SB summary kept current as stalls grow — the
/// largest stall in the SB, and the largest on a ring other than that
/// one's — so a sweep is O(|V|) however many stations share an SB.
inline StallFixpoint stall_fixpoint(const std::vector<StallStation>& stations,
                                    std::size_t num_sbs) {
    const std::size_t V = stations.size();
    StallFixpoint fp;
    fp.stall.assign(V, 0);
    fp.pred.assign(V, kNoStation);
    std::vector<detail::SbStall> sbs(num_sbs);
    for (std::size_t round = 0;; ++round) {
        fp.still_growing = kNoStation;
        for (std::size_t i = 0; i < V; ++i) {
            const StallStation& n = stations[i];
            const detail::SbStall& peer = sbs[n.peer_sb];
            const detail::Best cross =
                peer.top_ring != n.ring ? peer.top : peer.other;
            const sim::Time pressure = n.away + cross.stall;
            const sim::Time s =
                pressure > n.provisioned ? pressure - n.provisioned : 0;
            if (s <= fp.stall[i]) continue;
            fp.stall[i] = s;
            fp.pred[i] = cross.station;
            if (fp.still_growing == kNoStation) fp.still_growing = i;

            detail::SbStall& own = sbs[n.sb];
            if (own.top.beaten_by(s, i)) {
                // The old top is the best off the new top's ring, unless
                // it shares that ring and `other` stays the best off it.
                if (own.top_ring != n.ring) own.other = own.top;
                own.top = {s, i};
                own.top_ring = n.ring;
            } else if (own.top_ring != n.ring && own.other.beaten_by(s, i)) {
                own.other = {s, i};
            }
        }
        fp.rounds = round + 1;
        if (fp.still_growing == kNoStation) break;
        if (round >= V + 1) {
            fp.diverged = true;
            break;
        }
    }
    return fp;
}

}  // namespace st::dl
