#include "deadlock_oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace st::oracle {

namespace {

constexpr std::size_t kNone = dl::kNoStation;

sim::Time oracle_period(const sys::SbSpec& sb) {
    return sb.clock.base_period * sb.clock.divider;
}

struct NodeView {
    std::size_t ring = 0;
    std::size_t sb = 0;
    std::size_t peer_sb = 0;
    sim::Time provisioned = 0;
    sim::Time away_nominal = 0;
};

}  // namespace

LegacyRules check_rules(const sys::SocSpec& spec) {
    LegacyRules out;
    dl::RuleReport& report = out.report;

    std::vector<NodeView> nodes;
    for (std::size_t r = 0; r < spec.rings.size(); ++r) {
        const auto& ring = spec.rings[r];
        const sim::Time t_a = oracle_period(spec.sbs[ring.sb_a]);
        const sim::Time t_b = oracle_period(spec.sbs[ring.sb_b]);
        const sim::Time round_trip = ring.delay_ab + ring.delay_ba;

        NodeView a;
        a.ring = r;
        a.sb = ring.sb_a;
        a.peer_sb = ring.sb_b;
        a.provisioned = static_cast<sim::Time>(ring.node_a.recycle) * t_a;
        a.away_nominal =
            round_trip + static_cast<sim::Time>(ring.node_b.hold + 1) * t_b;
        nodes.push_back(a);

        NodeView b;
        b.ring = r;
        b.sb = ring.sb_b;
        b.peer_sb = ring.sb_a;
        b.provisioned = static_cast<sim::Time>(ring.node_b.recycle) * t_b;
        b.away_nominal =
            round_trip + static_cast<sim::Time>(ring.node_a.hold + 1) * t_a;
        nodes.push_back(b);
    }
    for (std::size_t r = 0; r < spec.multi_rings.size(); ++r) {
        const auto& mr = spec.multi_rings[r];
        sim::Time hops_total = 0;
        for (const auto& m : mr.members) hops_total += m.hop_delay;
        for (std::size_t i = 0; i < mr.members.size(); ++i) {
            const auto& me = mr.members[i];
            const sim::Time t_local = oracle_period(spec.sbs[me.sb]);
            sim::Time others = 0;
            for (std::size_t j = 0; j < mr.members.size(); ++j) {
                if (j == i) continue;
                const auto& other = mr.members[j];
                others += static_cast<sim::Time>(other.node.hold + 1) *
                          oracle_period(spec.sbs[other.sb]);
            }
            for (std::size_t j = 0; j < mr.members.size(); ++j) {
                if (j == i) continue;
                NodeView v;
                v.ring = spec.rings.size() + r;
                v.sb = me.sb;
                v.peer_sb = mr.members[j].sb;
                v.provisioned =
                    static_cast<sim::Time>(me.node.recycle) * t_local;
                v.away_nominal = hops_total + others;
                nodes.push_back(v);
            }
        }
    }

    const std::size_t max_iters = (spec.sbs.size() + 2) * (nodes.size() + 2);
    std::vector<sim::Time> stall(nodes.size(), 0);
    bool diverged = false;
    for (std::size_t iter = 0;; ++iter) {
        bool changed = false;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const auto& n = nodes[i];
            sim::Time cross = 0;
            for (std::size_t j = 0; j < nodes.size(); ++j) {
                if (nodes[j].sb == n.peer_sb && nodes[j].ring != n.ring) {
                    cross = std::max(cross, stall[j]);
                }
            }
            const sim::Time pressure = n.away_nominal + cross;
            const sim::Time s =
                pressure > n.provisioned ? pressure - n.provisioned : 0;
            if (s > stall[i]) {
                stall[i] = s;
                changed = true;
            }
        }
        if (!changed) break;
        if (iter >= max_iters) {
            diverged = true;
            break;
        }
    }

    if (diverged) {
        report.ok = false;
        report.violations.push_back(
            "cyclic chain of under-provisioned recycle registers: stall "
            "bounds diverge (deadlock possible)");
    }
    report.stall_bound.assign(spec.sbs.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        report.stall_bound[nodes[i].sb] =
            std::max(report.stall_bound[nodes[i].sb], stall[i]);
    }
    for (const auto& n : nodes) {
        if (n.provisioned < n.away_nominal) {
            if (n.ring >= spec.rings.size()) {
                ++out.skipped_multi_ring_advisories;
                continue;
            }
            std::ostringstream os;
            os << "ring '" << spec.rings[n.ring].name << "' node in SB '"
               << spec.sbs[n.sb].name << "': provisioned wait "
               << sim::format_time(n.provisioned)
               << " < nominal token absence "
               << sim::format_time(n.away_nominal)
               << " (late tokens guaranteed; verify transitive slack)";
            report.violations.push_back(os.str());
        }
    }
    out.stall = std::move(stall);
    return out;
}

dl::StallFixpoint coupling_fixpoint(const sva::TokenFlowGraph& g) {
    const std::size_t V = g.stations.size();
    std::vector<std::vector<std::size_t>> coupling(V);
    std::vector<std::vector<std::size_t>> by_sb(g.sbs.size());
    for (std::size_t i = 0; i < V; ++i) {
        by_sb[g.stations[i].sb].push_back(i);
    }
    for (std::size_t n = 0; n < V; ++n) {
        for (const std::size_t j : by_sb[g.stations[n].peer_sb]) {
            if (g.stations[j].ring != g.stations[n].ring) {
                coupling[n].push_back(j);
            }
        }
    }

    dl::StallFixpoint fp;
    fp.stall.assign(V, 0);
    fp.pred.assign(V, kNone);
    std::vector<char> grew(V, 0);
    for (std::size_t round = 0;; ++round) {
        bool changed = false;
        std::fill(grew.begin(), grew.end(), 0);
        for (std::size_t i = 0; i < V; ++i) {
            const auto& n = g.stations[i];
            sim::Time cross = 0;
            std::size_t best = kNone;
            for (const std::size_t j : coupling[i]) {
                if (fp.stall[j] > cross) {
                    cross = fp.stall[j];
                    best = j;
                }
            }
            const sim::Time pressure = n.away + cross;
            const sim::Time s =
                pressure > n.provisioned ? pressure - n.provisioned : 0;
            if (s > fp.stall[i]) {
                fp.stall[i] = s;
                fp.pred[i] = best;
                grew[i] = 1;
                changed = true;
            }
        }
        fp.rounds = round + 1;
        if (!changed) break;
        if (round >= V + 1) {
            fp.diverged = true;
            break;
        }
    }
    if (fp.diverged) {
        const auto it = std::find(grew.begin(), grew.end(), 1);
        fp.still_growing = static_cast<std::size_t>(it - grew.begin());
    }
    return fp;
}

std::vector<sva::Obligation> pass_deadlock(const sva::TokenFlowGraph& g) {
    std::vector<sva::Obligation> out;
    if (!g.ok()) return out;
    sva::Obligation ob;
    ob.pass = "sva-deadlock";
    ob.locus = "soc";
    const std::size_t V = g.stations.size();
    if (V == 0) {
        ob.evidence = "no token rings: trivially deadlock-free";
        out.push_back(std::move(ob));
        return out;
    }
    const dl::StallFixpoint fp = coupling_fixpoint(g);

    if (!fp.diverged) {
        sim::Time worst = 0;
        std::size_t worst_i = 0;
        std::size_t fragile = 0;
        for (std::size_t i = 0; i < V; ++i) {
            if (fp.stall[i] > worst) {
                worst = fp.stall[i];
                worst_i = i;
            }
            if (g.stations[i].provisioned * 75 < g.stations[i].away * 200) {
                ++fragile;
            }
        }
        std::ostringstream os;
        os << "transitive-stall fixpoint converged over " << V
           << " station(s) in " << fp.rounds
           << " round(s); worst stall bound " << sim::format_time(worst);
        if (worst > 0) {
            os << " at " << dl::station_locus(*g.spec, g.stations[worst_i]);
        }
        os << "; " << fragile << "/" << V
           << " station(s) have negative worst-corner slack under the "
              "50-200% envelope — absorbed by count-quantization (delivery "
              "coordinates are hold/recycle counts, not wall-clock times)";
        ob.evidence = os.str();
        out.push_back(std::move(ob));
        return out;
    }

    std::vector<std::size_t> cycle;
    if (fp.still_growing != kNone) {
        std::vector<std::size_t> order(V, kNone);
        std::vector<std::size_t> path;
        std::size_t cur = fp.still_growing;
        while (cur != kNone && order[cur] == kNone) {
            order[cur] = path.size();
            path.push_back(cur);
            cur = fp.pred[cur];
        }
        if (cur != kNone) {
            cycle.assign(path.begin() +
                             static_cast<std::ptrdiff_t>(order[cur]),
                         path.end());
        }
    }

    ob.verdict = sva::Verdict::kPlausible;
    std::ostringstream os;
    if (!cycle.empty()) {
        ob.locus = dl::station_locus(*g.spec, g.stations[cycle.front()]);
        std::int64_t gain = 0;
        os << "positive-deficit coupling cycle (stall fixpoint diverges): ";
        for (std::size_t k = 0; k < cycle.size(); ++k) {
            const auto& s = g.stations[cycle[k]];
            const std::int64_t d = static_cast<std::int64_t>(s.away) -
                                   static_cast<std::int64_t>(s.provisioned);
            gain += d;
            if (k) os << " <- ";
            os << dl::station_locus(*g.spec, s) << " ("
               << (d >= 0 ? "+" : "") << d << " ps)";
        }
        os << "; net +" << gain
           << " ps per rotation — each rotation returns the tokens later "
              "until every clock in the cycle stalls permanently";
    } else {
        os << "stall fixpoint diverges (cyclic chain of under-provisioned "
              "recycle registers) but no predecessor cycle was recovered";
    }
    ob.evidence = os.str();
    sva::Witness w;
    w.delays = sys::DelayConfig::nominal(*g.spec);
    w.expect = {fuzz::Outcome::kDeadlocked};
    ob.witness = std::move(w);
    out.push_back(std::move(ob));
    return out;
}

}  // namespace st::oracle
