// Timing lint passes: recycle schedule feasibility, FIFO burst occupancy and
// head visibility, clock-period hazards, and the absorbed deadlock fixpoint.

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "deadlock/rules.hpp"
#include "lint/lint.hpp"
#include "lint/locus.hpp"
#include "sim/time.hpp"

namespace st::lint {

using detail::channel_locus;
using detail::multi_ring_locus;
using detail::ring_locus;

void check_recycle_feasibility(const sys::SocSpec& spec, LintReport& report) {
    const std::vector<dl::StallStation> stations = dl::stall_stations(spec);
    for (std::size_t i = 0; i < stations.size(); ++i) {
        const dl::StallStation& s = stations[i];
        const sim::Time t_local = sys::effective_period(spec.sbs[s.sb]);
        // A zero period is param-sanity's error: there is no schedule.
        if (t_local == 0 || s.provisioned >= s.away ||
            dl::repeats_member(spec, stations, i)) {
            continue;
        }
        const std::string locus =
            s.ring < spec.rings.size()
                ? detail::node_locus(spec, spec.rings[s.ring], s.sb)
                : multi_ring_locus(
                      spec.multi_rings[s.ring - spec.rings.size()]) +
                      " node in " + detail::sb_locus(spec, s.sb);
        if (s.away - s.provisioned <= t_local) {
            // Within one alignment cycle: a tuned schedule (initial_recycle
            // phase alignment) legitimately runs here — the pair testbench
            // does.
            report.add(Severity::kNote, "recycle-feasibility", locus,
                       "provisioned wait " + sim::format_time(s.provisioned) +
                           " trails the nominal token absence " +
                           sim::format_time(s.away) +
                           " by less than one local cycle; requires tuned "
                           "initial_recycle phase alignment to avoid stalls");
            continue;
        }
        report.add(Severity::kError, "recycle-feasibility", locus,
                   "provisioned wait " + sim::format_time(s.provisioned) +
                       " cannot cover the nominal token absence " +
                       sim::format_time(s.away) +
                       "; the local clock stalls on every rotation",
                   "raise the recycle register to >= " +
                       std::to_string(static_cast<std::uint32_t>(
                           (s.away + t_local - 1) / t_local)));
    }
}

void check_fifo_provisioning(const sys::SocSpec& spec, LintReport& report) {
    for (const auto& ch : spec.channels) {
        // channel-ring reports a channel its ring does not bind.
        const std::optional<dl::ChannelTiming> t = dl::channel_timing(spec, ch);
        if (!t) continue;
        if (ch.fifo.depth < t->burst) {
            std::ostringstream os;
            os << "FIFO depth " << ch.fifo.depth
               << " cannot absorb the worst-case burst of " << t->burst
               << " words written during one hold phase; tail backpressure "
                  "breaks the handshake-within-one-cycle contract";
            report.add(Severity::kError, "fifo-depth", channel_locus(ch),
                       os.str(),
                       "set depth >= the producer node's hold value (" +
                           std::to_string(t->burst) + ")");
        }

        // Head visibility (paper §4.1): a word written on the producer's
        // last hold cycle must ripple through every stage and complete the
        // head handshake before the token reaches the consumer and enables
        // the head interface. Static worst case: full ripple plus the head
        // link's unloaded handshake vs. the token flight time.
        if (t->flight != 0 && t->ripple > t->flight) {
            std::ostringstream os;
            os << "worst-case head arrival " << sim::format_time(t->ripple)
               << " (full ripple + head handshake) exceeds the token flight "
                  "time "
               << sim::format_time(t->flight)
               << "; the consumer may enable its head interface before the "
                  "last word is visible";
            report.add(Severity::kWarning, "fifo-head-visibility",
                       channel_locus(ch), os.str(),
                       "shorten the FIFO, reduce stage delay, or lengthen "
                       "the token wire relative to the data path");
        }
    }
}

void check_clock_hazards(const sys::SocSpec& spec, LintReport& report) {
    constexpr double kRatioLimit = 4.0;
    const auto sb_period = [&](std::size_t i) {
        return sys::effective_period(spec.sbs[i]);
    };
    const auto ratio_check = [&](const std::string& locus, sim::Time t_a,
                                 sim::Time t_b) {
        const double hi = static_cast<double>(std::max(t_a, t_b));
        const double lo = static_cast<double>(std::min(t_a, t_b));
        if (lo > 0 && hi / lo > kRatioLimit) {
            std::ostringstream os;
            os << "clock-period ratio " << hi / lo << " exceeds " << kRatioLimit
               << "; the fast side idles most of each rotation and recycle "
                  "counts grow toward the 8-bit ceiling";
            report.add(Severity::kWarning, "clock-ratio", locus, os.str(),
                       "re-tune dividers or split the ring so paired clocks "
                       "are within ~4x");
        }
    };
    for (const auto& ring : spec.rings) {
        ratio_check(ring_locus(ring), sb_period(ring.sb_a),
                    sb_period(ring.sb_b));
    }
    for (const auto& mr : spec.multi_rings) {
        sim::Time hi = 0;
        sim::Time lo = ~sim::Time{0};
        for (const auto& m : mr.members) {
            hi = std::max(hi, sb_period(m.sb));
            lo = std::min(lo, sb_period(m.sb));
        }
        ratio_check(multi_ring_locus(mr), hi, lo);
    }
    for (std::size_t i = 0; i < spec.sbs.size(); ++i) {
        const sim::Time period = sb_period(i);
        const sim::Time restart = spec.sbs[i].clock.restart_delay;
        if (period > 0 && restart * 2 >= period) {
            report.add(Severity::kWarning, "restart-delay",
                       detail::sb_locus(spec, i),
                       "async restart latency " + sim::format_time(restart) +
                           " is >= half the local period " +
                           sim::format_time(period) +
                           "; every stall costs an extra effective cycle",
                       "lower restart_delay or provision recycle slack for "
                       "the added recovery time");
        }
    }
}

void check_deadlock_rules(const sys::SocSpec& spec, LintReport& report) {
    const dl::RuleReport rules = dl::check_rules(spec);
    if (!rules.ok) {
        report.add(Severity::kError, "deadlock-fixpoint", "spec",
                   "transitive stall bounds diverge: a cyclic chain of "
                   "under-provisioned recycle registers can deadlock the "
                   "stopped clocks",
                   "add recycle slack on at least one ring of every "
                   "potential cycle (DESIGN.md section 6)");
    }
    for (const auto& v : rules.violations) {
        report.add(Severity::kNote, "deadlock-advisory", "spec", v);
    }
}

}  // namespace st::lint
