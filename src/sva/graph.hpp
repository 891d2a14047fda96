#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lint/diagnostic.hpp"
#include "system/spec.hpp"

namespace st::sva {

/// One token-ring station: a ring endpoint's (or multi-ring member's) view
/// of the token schedule, annotated with the budgets the static passes
/// reason about. Mirrors `dl::stall_stations` exactly — one station per
/// endpoint for two-node rings, one station per (member, other-member) pair
/// for multi-rings — and both run the one `dl::stall_fixpoint` kernel, so
/// the sva deadlock pass and `dl::check_rules` agree by construction.
struct Station {
    std::size_t ring = 0;  ///< unified id: rings, then multi_rings offset
    bool multi = false;
    std::size_t sb = 0;       ///< SB hosting this station
    std::size_t peer_sb = 0;  ///< SB whose stall this station inherits
    std::uint32_t hold = 0;
    std::uint32_t recycle = 0;
    sim::Time t_local = 0;      ///< effective local clock period, ps
    sim::Time provisioned = 0;  ///< R * T_local: wait budgeted after passing
    sim::Time away = 0;         ///< nominal token absence, ps
    std::string locus;          ///< lint-style locus for diagnostics

    /// Signed schedule margin, floored at zero on each side.
    sim::Time deficit() const {
        return away > provisioned ? away - provisioned : 0;
    }
    sim::Time slack() const {
        return provisioned > away ? provisioned - away : 0;
    }
};

/// One channel (self-timed FIFO + handshakes) as a data edge of the graph,
/// annotated with the occupancy and timing intervals the passes need.
struct FifoEdge {
    std::size_t channel = 0;  ///< index into SocSpec::channels
    std::size_t from_sb = 0;
    std::size_t to_sb = 0;
    std::size_t ring = 0;  ///< unified ring id the channel is bundled to
    bool multi = false;
    std::uint32_t depth = 0;
    sim::Time stage_delay = 0;
    std::uint32_t burst = 0;  ///< producer hold H: words pushed per rotation
    sim::Time ripple = 0;     ///< full ripple + head handshake, ps
    sim::Time flight = 0;     ///< token flight producer -> consumer, ps
    sim::Time t_prod = 0;     ///< producer effective clock period
    sim::Time t_cons = 0;     ///< consumer effective clock period
    std::string locus;
};

/// One SB with its schedule-relevant clock parameters and adjacency.
struct SbNode {
    std::string name;
    sim::Time period = 0;   ///< effective period (base * divider)
    sim::Time restart = 0;  ///< async restart latency
    std::vector<std::size_t> stations;
    std::vector<std::size_t> out_channels;
    std::vector<std::size_t> in_channels;
};

/// One unified ring (two-node rings first, then multi-rings).
struct RingInfo {
    std::string name;
    bool multi = false;
    std::size_t index = 0;    ///< into spec.rings or spec.multi_rings
    std::size_t holders = 0;  ///< number of initial token holders (budget)
};

/// The token-flow graph IR every sva pass runs over: SBs, stations and FIFO
/// edges. Station j couples into station n when j sits in n's peer SB on a
/// different ring (j's stall delays the token n waits for); the deadlock
/// pass evaluates it inside `dl::stall_fixpoint`. Structural defects
/// found while lowering are recorded instead of thrown, so the structure
/// pass can report them as obligations.
struct TokenFlowGraph {
    const sys::SocSpec* spec = nullptr;
    std::vector<SbNode> sbs;
    std::vector<RingInfo> rings;
    std::vector<Station> stations;
    std::vector<FifoEdge> fifos;
    /// Lowering-time structural defects (rule `sva-structure`). When any
    /// defect makes an element un-lowerable the element is skipped; deeper
    /// passes run only on a graph with no defects.
    std::vector<lint::Diagnostic> structural;
    /// Defects that a plain elaboration would reject with a clean exception
    /// (replayable as a model-trap witness), as indices into `structural`.
    std::vector<std::size_t> trap_defects;

    bool ok() const { return structural.empty(); }
};

/// Lower a SocSpec into the token-flow graph. Never throws: malformed
/// structure lands in `structural` and the affected elements are skipped.
TokenFlowGraph lower(const sys::SocSpec& spec);

}  // namespace st::sva
