#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "deadlock/fixpoint.hpp"
#include "system/spec.hpp"

namespace st::dl {

/// Result of the static deadlock-rule check.
struct RuleReport {
    bool ok = true;
    std::vector<std::string> violations;
    /// Worst-case transitive stall bound per SB (ps); meaningful when ok.
    std::vector<sim::Time> stall_bound;

    std::string summary() const;
};

/// The fixpoint stations of `spec` (DESIGN.md §6): node n on ring r in SB s
/// provisions `R_n * T_s` of wait after passing the token. The token is away
/// for the wire round trip plus the peer's hold phase plus up to one peer
/// cycle of recycle alignment. A multi-ring (token bus) member sees the
/// token away for the full hop circumference plus every other member's hold
/// (and one alignment cycle each); it gets one station per other member, so
/// the fixpoint can propagate stalls from any co-member's SB. Two-node rings
/// come first, then multi-rings, in spec order.
std::vector<StallStation> stall_stations(const sys::SocSpec& spec);

/// True when stations[i] is a multi-ring member's second or later station.
/// All of a member's stations share one budget, so a report per member
/// skips these.
inline bool repeats_member(const sys::SocSpec& spec,
                           const std::vector<StallStation>& stations,
                           std::size_t i) {
    return stations[i].ring >= spec.rings.size() && i > 0 &&
           stations[i - 1].ring == stations[i].ring &&
           stations[i - 1].sb == stations[i].sb;
}

/// Where station `s` sits, in the wording dl::check_rules advisories and
/// sva evidence share: "ring 'x' node in SB 'y'" or "multi-ring 'x' member
/// SB 'y'".
std::string station_locus(const sys::SocSpec& spec, const StallStation& s);

/// The schedule quantities of one channel (DESIGN.md §6, paper §4.1).
struct ChannelTiming {
    std::uint32_t burst = 0;  ///< producer hold H: words pushed per visit
    sim::Time ripple = 0;     ///< full FIFO ripple + head handshake, ps
    /// Token flight from the producer's node to the consumer's: the wire
    /// a -> b or b -> a on a two-node ring; on a multi-ring the hop delays
    /// from producer to consumer in ring order summed.
    sim::Time flight = 0;
};

/// The schedule quantities of `ch`, or nullopt when `ch` is not correctly
/// bound: its ring index is out of range, its two-node ring does not join
/// its SBs, or an endpoint is not a member of its multi-ring.
std::optional<ChannelTiming> channel_timing(const sys::SocSpec& spec,
                                            const sys::ChannelSpec& ch);

/// Static deadlock-preventing design rules for hold/recycle register values
/// (the paper formally derives such rules but leaves them out of scope;
/// DESIGN.md §6 documents this derivation).
///
/// Runs stall_fixpoint() over stall_stations(spec): transitively, a
/// station's token is also delayed by any stall its *peer SB* suffers from
/// its other rings. If the per-SB stall bounds diverge there is a cyclic
/// chain of under-provisioned rings that can deadlock. Stations whose
/// provisioned wait cannot even cover the nominal token absence are listed
/// as advisories, one per ring node or multi-ring member.
RuleReport check_rules(const sys::SocSpec& spec);

}  // namespace st::dl
