#include "deadlock/rules.hpp"

#include <algorithm>
#include <sstream>

namespace st::dl {

std::vector<StallStation> stall_stations(const sys::SocSpec& spec) {
    std::vector<StallStation> nodes;
    for (std::size_t r = 0; r < spec.rings.size(); ++r) {
        const auto& ring = spec.rings[r];
        const sim::Time t_a = sys::effective_period(spec.sbs[ring.sb_a]);
        const sim::Time t_b = sys::effective_period(spec.sbs[ring.sb_b]);
        const sim::Time round_trip = ring.delay_ab + ring.delay_ba;

        StallStation a;
        a.ring = r;
        a.sb = ring.sb_a;
        a.peer_sb = ring.sb_b;
        a.provisioned = static_cast<sim::Time>(ring.node_a.recycle) * t_a;
        a.away =
            round_trip + static_cast<sim::Time>(ring.node_b.hold + 1) * t_b;
        nodes.push_back(a);

        StallStation b;
        b.ring = r;
        b.sb = ring.sb_b;
        b.peer_sb = ring.sb_a;
        b.provisioned = static_cast<sim::Time>(ring.node_b.recycle) * t_b;
        b.away =
            round_trip + static_cast<sim::Time>(ring.node_a.hold + 1) * t_a;
        nodes.push_back(b);
    }

    for (std::size_t r = 0; r < spec.multi_rings.size(); ++r) {
        const auto& mr = spec.multi_rings[r];
        sim::Time hops_total = 0;
        for (const auto& m : mr.members) hops_total += m.hop_delay;
        for (std::size_t i = 0; i < mr.members.size(); ++i) {
            const auto& me = mr.members[i];
            const sim::Time t_local = sys::effective_period(spec.sbs[me.sb]);
            sim::Time others = 0;
            for (std::size_t j = 0; j < mr.members.size(); ++j) {
                if (j == i) continue;
                const auto& other = mr.members[j];
                others += static_cast<sim::Time>(other.node.hold + 1) *
                          sys::effective_period(spec.sbs[other.sb]);
            }
            for (std::size_t j = 0; j < mr.members.size(); ++j) {
                if (j == i) continue;
                StallStation v;
                v.ring = spec.rings.size() + r;  // distinct ring id space
                v.sb = me.sb;
                v.peer_sb = mr.members[j].sb;
                v.provisioned =
                    static_cast<sim::Time>(me.node.recycle) * t_local;
                v.away = hops_total + others;
                nodes.push_back(v);
            }
        }
    }
    return nodes;
}

RuleReport check_rules(const sys::SocSpec& spec) {
    RuleReport report;
    const std::vector<StallStation> nodes = stall_stations(spec);
    const StallFixpoint fp = stall_fixpoint(nodes, spec.sbs.size());

    if (fp.diverged) {
        report.ok = false;
        report.violations.push_back(
            "cyclic chain of under-provisioned recycle registers: stall "
            "bounds diverge (deadlock possible)");
    }
    report.stall_bound.assign(spec.sbs.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        report.stall_bound[nodes[i].sb] =
            std::max(report.stall_bound[nodes[i].sb], fp.stall[i]);
    }

    // Per-node report: rings whose recycle provisioning cannot even cover
    // the nominal token round trip are flagged individually (they stall the
    // clock routinely; combined with a cycle they deadlock). A multi-ring
    // member's stations all share one budget, so it is flagged once.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto& n = nodes[i];
        if (n.provisioned >= n.away || repeats_member(spec, nodes, i)) {
            continue;
        }
        report.violations.push_back(
            station_locus(spec, n) + ": provisioned wait " +
            sim::format_time(n.provisioned) + " < nominal token absence " +
            sim::format_time(n.away) +
            " (late tokens guaranteed; verify transitive slack)");
    }
    return report;
}

std::string station_locus(const sys::SocSpec& spec, const StallStation& s) {
    const std::string sb = "SB '" + spec.sbs[s.sb].name + "'";
    if (s.ring < spec.rings.size()) {
        return "ring '" + spec.rings[s.ring].name + "' node in " + sb;
    }
    return "multi-ring '" + spec.multi_rings[s.ring - spec.rings.size()].name +
           "' member " + sb;
}

std::optional<ChannelTiming> channel_timing(const sys::SocSpec& spec,
                                            const sys::ChannelSpec& ch) {
    ChannelTiming t;
    t.ripple = static_cast<sim::Time>(ch.fifo.depth) * ch.fifo.stage_delay +
               2 * (ch.fifo.head_req_delay + ch.fifo.head_ack_delay);
    if (!ch.on_multi_ring) {
        if (ch.ring >= spec.rings.size()) return std::nullopt;
        const auto& ring = spec.rings[ch.ring];
        if (ring.sb_a == ch.from_sb && ring.sb_b == ch.to_sb) {
            t.burst = ring.node_a.hold;
            t.flight = ring.delay_ab;
        } else if (ring.sb_b == ch.from_sb && ring.sb_a == ch.to_sb) {
            t.burst = ring.node_b.hold;
            t.flight = ring.delay_ba;
        } else {
            return std::nullopt;
        }
        return t;
    }
    if (ch.ring >= spec.multi_rings.size()) return std::nullopt;
    const auto& members = spec.multi_rings[ch.ring].members;
    std::size_t from_m = members.size();
    std::size_t to_m = members.size();
    for (std::size_t m = 0; m < members.size(); ++m) {
        if (members[m].sb == ch.from_sb) from_m = m;
        if (members[m].sb == ch.to_sb) to_m = m;
    }
    if (from_m == members.size() || to_m == members.size()) {
        return std::nullopt;
    }
    t.burst = members[from_m].node.hold;
    // hop_delay is the wire to the *next* member.
    for (std::size_t m = from_m; m != to_m; m = (m + 1) % members.size()) {
        t.flight += members[m].hop_delay;
    }
    return t;
}

std::string RuleReport::summary() const {
    std::ostringstream os;
    os << (ok ? "OK" : "DEADLOCK RISK") << "; " << violations.size()
       << " advisories";
    for (const auto& v : violations) os << "\n  - " << v;
    return os.str();
}

}  // namespace st::dl
