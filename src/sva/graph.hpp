#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "deadlock/fixpoint.hpp"
#include "lint/diagnostic.hpp"
#include "system/spec.hpp"

namespace st::sva {

/// One channel (self-timed FIFO + handshakes) as a data edge of the graph,
/// with the `dl::channel_timing` quantities the passes read.
struct FifoEdge {
    std::size_t channel = 0;  ///< index into SocSpec::channels
    std::size_t from_sb = 0;
    std::uint32_t depth = 0;
    sim::Time stage_delay = 0;
    std::uint32_t burst = 0;  ///< producer hold H: words pushed per rotation
    sim::Time ripple = 0;     ///< full ripple + head handshake, ps
    sim::Time flight = 0;     ///< token flight producer -> consumer, ps
    sim::Time t_prod = 0;     ///< producer effective clock period
    sim::Time t_cons = 0;     ///< consumer effective clock period
};

/// One SB with its schedule-relevant clock parameters.
struct SbNode {
    std::string name;
    sim::Time period = 0;   ///< sys::effective_period
    sim::Time restart = 0;  ///< async restart latency
    /// Inbound async event sources landing in this SB's timeslots: one per
    /// station hosted here, one per channel ending here.
    std::size_t sources = 0;
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
    /// `dl::stall_stations(*spec)`: dl::check_rules and the deadlock pass
    /// run the one `dl::stall_fixpoint` over the same stations, so they
    /// agree by construction. `dl::station_locus` renders a reported one.
    std::vector<dl::StallStation> stations;
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
