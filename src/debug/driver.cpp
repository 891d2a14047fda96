#include "debug/driver.hpp"

#include <stdexcept>

namespace st::debug {

Driver::Driver(sys::SocSpec spec)
    : spec_(std::move(spec)), soc_(std::make_unique<sys::Soc>(spec_)) {}

bool Driver::any_hit(const std::vector<Breakpoint>& stops,
                     std::optional<Breakpoint>& which) const {
    for (const auto& bp : stops) {
        if (bp.sb >= soc_->num_sbs()) {
            throw std::invalid_argument("debug: breakpoint SB " +
                                        std::to_string(bp.sb) +
                                        " out of range");
        }
        if (soc_->wrapper(bp.sb).clock().cycles() >= bp.cycle) {
            which = bp;
            return true;
        }
    }
    return false;
}

StopInfo Driver::run_impl(sim::Time deadline,
                          const std::vector<Breakpoint>& stops) {
    soc_->start();
    auto& sched = soc_->scheduler();
    StopInfo info;
    while (true) {
        if (any_hit(stops, info.hit)) {
            info.reason = StopReason::kBreakpoint;
            break;
        }
        if (!sched.step_until(deadline)) {
            info.reason = sched.quiescent() ? StopReason::kQuiescent
                                            : StopReason::kDeadline;
            break;
        }
    }
    // Land on a slot boundary so the stop state is snapshottable and
    // digests are reproducible across sessions.
    soc_->settle();
    return info;
}

StopInfo Driver::run(sim::Time deadline) {
    return run_impl(deadline, breakpoints_);
}

StopInfo Driver::run_to_cycle(std::size_t sb, std::uint64_t cycle,
                              sim::Time deadline) {
    return run_impl(deadline, {Breakpoint{sb, cycle}});
}

std::uint64_t Driver::step(std::uint64_t n) {
    soc_->start();
    auto& sched = soc_->scheduler();
    std::uint64_t done = 0;
    while (done < n && sched.step()) ++done;
    soc_->settle();
    return done;
}

std::uint64_t Driver::cycle(std::size_t sb) const {
    return soc_->wrapper(sb).clock().cycles();
}

snap::Snapshot Driver::snapshot() {
    soc_->start();
    soc_->settle();
    return soc_->save_snapshot();
}

void Driver::save(const std::string& path) { snapshot().save_file(path); }

void Driver::set_race_audit(bool on) {
    race_audit_ = on;
    soc_->scheduler().set_race_audit(on);
}

void Driver::restore(const snap::Snapshot& snapshot) {
    auto fresh = std::make_unique<sys::Soc>(spec_);
    fresh->restore_snapshot(snapshot);
    soc_ = std::move(fresh);
    // Re-arm driver-owned observation state on the fresh Soc: without this a
    // resumed session silently stops auditing and diverges from the cold
    // session's diagnostics.
    if (race_audit_) soc_->scheduler().set_race_audit(true);
}

void Driver::load(const std::string& path) {
    restore(snap::Snapshot::load_file(path));
}

std::string format_stop(const StopInfo& info) {
    switch (info.reason) {
        case StopReason::kBreakpoint:
            return "breakpoint sb=" + std::to_string(info.hit->sb) +
                   " cycle=" + std::to_string(info.hit->cycle);
        case StopReason::kQuiescent:
            return "quiescent";
        case StopReason::kDeadline:
            return "deadline";
    }
    return "unknown";
}

}  // namespace st::debug
