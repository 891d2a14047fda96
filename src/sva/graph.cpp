#include "sva/graph.hpp"

#include "deadlock/rules.hpp"

namespace st::sva {

namespace {

void defect(TokenFlowGraph& g, std::string locus, std::string message,
            bool replayable_trap) {
    lint::Diagnostic d;
    d.severity = lint::Severity::kError;
    d.rule = "sva-structure";
    d.locus = std::move(locus);
    d.message = std::move(message);
    if (replayable_trap) g.trap_defects.push_back(g.structural.size());
    g.structural.push_back(std::move(d));
}

}  // namespace

TokenFlowGraph lower(const sys::SocSpec& spec) {
    TokenFlowGraph g;
    g.spec = &spec;

    g.sbs.reserve(spec.sbs.size());
    for (const auto& sb : spec.sbs) {
        SbNode n;
        n.name = sb.name;
        n.period = sys::effective_period(sb);
        n.restart = sb.clock.restart_delay;
        // A zero clock has no schedule. Elaboration rejects it with a clean
        // exception, so the defect is replayable as a model-trap witness.
        if (sb.clock.base_period == 0) {
            defect(g, "SB '" + sb.name + "'", "zero clock base period", true);
        }
        if (sb.clock.divider == 0) {
            defect(g, "SB '" + sb.name + "'", "zero clock divider", true);
        }
        g.sbs.push_back(std::move(n));
    }

    // --- two-node rings ---------------------------------------------------
    for (std::size_t r = 0; r < spec.rings.size(); ++r) {
        const auto& ring = spec.rings[r];
        const std::string locus = "ring '" + ring.name + "'";
        if (ring.sb_a >= spec.sbs.size() || ring.sb_b >= spec.sbs.size()) {
            defect(g, locus, "SB endpoint index out of range", false);
            continue;
        }
        if (ring.sb_a == ring.sb_b) {
            defect(g, locus, "ring is a self-loop on one SB", false);
            continue;
        }
        RingInfo info;
        info.name = ring.name;
        info.multi = false;
        info.index = r;
        info.holders = (ring.node_a.initial_holder ? 1u : 0u) +
                       (ring.node_b.initial_holder ? 1u : 0u);
        g.rings.push_back(std::move(info));
    }

    // --- multi-rings (token buses) ----------------------------------------
    for (std::size_t r = 0; r < spec.multi_rings.size(); ++r) {
        const auto& mr = spec.multi_rings[r];
        const std::string locus = "multi-ring '" + mr.name + "'";
        if (mr.members.size() < 2) {
            defect(g, locus, "fewer than 2 members", false);
            continue;
        }
        bool bad = false;
        for (const auto& m : mr.members) {
            if (m.sb >= spec.sbs.size()) {
                defect(g, locus, "member SB index out of range", false);
                bad = true;
                break;
            }
        }
        if (bad) continue;
        for (std::size_t i = 0; !bad && i < mr.members.size(); ++i) {
            for (std::size_t j = i + 1; j < mr.members.size(); ++j) {
                if (mr.members[i].sb == mr.members[j].sb) {
                    defect(g, locus,
                           "SB '" + spec.sbs[mr.members[i].sb].name +
                               "' appears twice",
                           false);
                    bad = true;
                    break;
                }
            }
        }
        if (bad) continue;

        RingInfo info;
        info.name = mr.name;
        info.multi = true;
        info.index = r;
        for (const auto& m : mr.members) {
            if (m.node.initial_holder) ++info.holders;
        }
        g.rings.push_back(std::move(info));
    }

    // --- channels ----------------------------------------------------------
    for (std::size_t c = 0; c < spec.channels.size(); ++c) {
        const auto& ch = spec.channels[c];
        const std::string locus = "channel '" + ch.name + "'";
        if (ch.from_sb >= spec.sbs.size() || ch.to_sb >= spec.sbs.size()) {
            defect(g, locus, "SB endpoint index out of range", false);
            continue;
        }
        const std::size_t ring_count =
            ch.on_multi_ring ? spec.multi_rings.size() : spec.rings.size();
        if (ch.ring >= ring_count) {
            defect(g, locus,
                   ch.on_multi_ring ? "multi-ring index out of range"
                                    : "ring index out of range",
                   false);
            continue;
        }
        const std::optional<dl::ChannelTiming> t = dl::channel_timing(spec, ch);
        if (!t && ch.on_multi_ring) {
            defect(g, locus,
                   "an endpoint is not a member of multi-ring '" +
                       spec.multi_rings[ch.ring].name + "'",
                   false);
            continue;
        }
        if (!t) {
            // Elaboration rejects this binding with a clean exception, so
            // the defect is replayable as a model-trap witness.
            defect(g, locus,
                   "bundled ring '" + spec.rings[ch.ring].name +
                       "' does not join SBs '" + spec.sbs[ch.from_sb].name +
                       "' and '" + spec.sbs[ch.to_sb].name + "'",
                   true);
            continue;
        }
        FifoEdge e;
        e.channel = c;
        e.from_sb = ch.from_sb;
        e.depth = ch.fifo.depth;
        e.stage_delay = ch.fifo.stage_delay;
        e.burst = t->burst;
        e.ripple = t->ripple;
        e.flight = t->flight;
        e.t_prod = g.sbs[ch.from_sb].period;
        e.t_cons = g.sbs[ch.to_sb].period;
        ++g.sbs[ch.to_sb].sources;
        g.fifos.push_back(e);
    }

    // A trap witness promises that elaboration throws *cleanly*. That only
    // holds when every structural defect is of the clean-throwing kind: if
    // an ill-indexed defect coexists, elaboration may fault on it first, so
    // no defect is safely replayable.
    if (g.trap_defects.size() != g.structural.size()) g.trap_defects.clear();

    // Only a well-formed spec has a schedule to derive.
    if (g.ok()) {
        g.stations = dl::stall_stations(spec);
        for (const auto& st : g.stations) ++g.sbs[st.sb].sources;
    }
    return g;
}

}  // namespace st::sva
