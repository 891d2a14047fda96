#include "baselines/baseline_soc.hpp"

#include <stdexcept>

namespace st::baseline {

BaselineSoc::BaselineSoc(const sys::SocSpec& spec, Kind kind,
                         verify::RunCapture* capture)
    : spec_(spec), kind_(kind) {
    if (capture != nullptr) {
        capture_ = capture;
    } else {
        own_capture_ = std::make_unique<verify::RunCapture>();
        capture_ = own_capture_.get();
    }
    capture_->begin_run();
    capture_->bind_scheduler(&sched_);

    // One capture stream per SB, in spec order (slot == SB index).
    for (const auto& s : spec_.sbs) {
        if (kind_ == Kind::kTwoFlop) {
            two_flop_.push_back(std::make_unique<TwoFlopWrapper>(
                sched_, s.name, s.clock, s.make_kernel()));
        } else {
            PausibleClock::Params pc;
            pc.period = sys::effective_period(s);
            pc.phase = s.clock.phase;
            pausible_.push_back(std::make_unique<PausibleWrapper>(
                sched_, s.name, pc, s.make_kernel()));
        }
        capture_->add_stream(s.name);
    }

    for (const auto& c : spec_.channels) {
        auto fifo = std::make_unique<achan::SelfTimedFifo>(sched_, c.name, c.fifo);
        verify::RunCapture* cap = capture_;
        const auto record = [cap](std::size_t slot, verify::IoEvent ev) {
            cap->record(slot, ev);
        };
        if (kind_ == Kind::kTwoFlop) {
            auto& out = two_flop_[c.from_sb]->attach_output(*fifo, c.tail_link);
            auto& in = two_flop_[c.to_sb]->attach_input(*fifo);
            const auto out_port = static_cast<std::uint32_t>(
                two_flop_[c.from_sb]->num_outputs() - 1);
            const auto in_port = static_cast<std::uint32_t>(
                two_flop_[c.to_sb]->num_inputs() - 1);
            out.on_send([record, slot = c.from_sb, out_port](
                            std::uint64_t cycle, Word w) {
                record(slot, {cycle, verify::IoEvent::Dir::kOut, out_port, w});
            });
            in.on_deliver([record, slot = c.to_sb, in_port](
                              std::uint64_t cycle, Word w) {
                record(slot, {cycle, verify::IoEvent::Dir::kIn, in_port, w});
            });
        } else {
            auto& out = pausible_[c.from_sb]->attach_output(*fifo, c.tail_link);
            auto& in = pausible_[c.to_sb]->attach_input(*fifo);
            const auto out_port = static_cast<std::uint32_t>(
                pausible_[c.from_sb]->num_outputs() - 1);
            const auto in_port = static_cast<std::uint32_t>(
                pausible_[c.to_sb]->num_inputs() - 1);
            out.on_send([record, slot = c.from_sb, out_port](
                            std::uint64_t cycle, Word w) {
                record(slot, {cycle, verify::IoEvent::Dir::kOut, out_port, w});
            });
            in.on_deliver([record, slot = c.to_sb, in_port](
                              std::uint64_t cycle, Word w) {
                record(slot, {cycle, verify::IoEvent::Dir::kIn, in_port, w});
            });
        }
        fifos_.push_back(std::move(fifo));
    }
}

void BaselineSoc::start() {
    if (started_) return;
    started_ = true;
    for (auto& w : two_flop_) w->start();
    for (auto& w : pausible_) w->start();
}

std::uint64_t BaselineSoc::cycles(std::size_t i) const {
    return kind_ == Kind::kTwoFlop ? two_flop_.at(i)->clock().cycles()
                                   : pausible_.at(i)->clock().cycles();
}

sb::SyncBlock& BaselineSoc::block(std::size_t i) {
    return kind_ == Kind::kTwoFlop ? two_flop_.at(i)->block()
                                   : pausible_.at(i)->block();
}

bool BaselineSoc::run_cycles(std::uint64_t n_cycles, sim::Time deadline) {
    start();
    const auto goal_met = [&] {
        for (std::size_t i = 0; i < num_sbs(); ++i) {
            if (cycles(i) < n_cycles) return false;
        }
        return true;
    };
    while (!goal_met()) {
        if (sched_.stop_requested()) return false;  // cooperative early exit
        if (!sched_.step_until(deadline)) return false;  // quiescent or late
    }
    return true;
}

}  // namespace st::baseline
