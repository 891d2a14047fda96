#include "fuzz/injector.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>

namespace st::fuzz {

namespace {

[[noreturn]] void bad_fault(const Fault& f, const std::string& why) {
    throw std::invalid_argument("Injector: fault '" + f.describe() + "': " +
                                why);
}

}  // namespace

core::TokenNode& Injector::ring_endpoint(sys::Soc& soc,
                                         const Fault& f) const {
    const auto& rings = soc.spec().rings;
    if (f.unit >= rings.size()) bad_fault(f, "ring index out of range");
    if (f.side > 1) bad_fault(f, "ring endpoint must be 0 (a) or 1 (b)");
    const auto& r = rings[f.unit];
    return soc.ring_node(f.unit, f.side == 0 ? r.sb_a : r.sb_b);
}

Injector::Injector(sys::Soc& soc, const std::vector<Fault>& faults)
    : sched_(&soc.scheduler()), soc_(&soc) {
    std::map<core::TokenNode*, std::vector<Trigger>> dup_groups;
    std::map<std::size_t, std::vector<Trigger>> fifo_groups;
    std::map<std::size_t, std::vector<Trigger>> clock_groups;

    for (const Fault& f : faults) {
        if (f.nth == 0 && f.cls != FaultClass::kSpuriousToken) {
            bad_fault(f, "nth is 1-based");
        }
        switch (f.cls) {
            case FaultClass::kTokenDropWire:
                // The ring tags deliveries with the TokenEndpoint* base, not
                // the TokenNode* — match on the same subobject address.
                wire_drops_.push_back(
                    Trigger{f, 0, false,
                            static_cast<const core::TokenEndpoint*>(
                                &ring_endpoint(soc, f))});
                break;
            case FaultClass::kTokenDuplicate:
                dup_groups[&ring_endpoint(soc, f)].push_back(Trigger{f});
                break;
            case FaultClass::kSpuriousToken: {
                core::TokenNode* node = &ring_endpoint(soc, f);
                // Clamp to now so fault lists drawn against time 0 stay
                // legal when injection begins after a warm-up prefix.
                const sim::Time at =
                    std::max<sim::Time>(f.value, soc.scheduler().now());
                // Untagged on purpose: the spurious transition must not be
                // droppable by a wire-drop fault installed below.
                soc.scheduler().schedule_at(
                    at, sim::Priority::kDefault, [this, node] {
                        ++fired_;
                        node->token_arrive();
                    });
                break;
            }
            case FaultClass::kFifoStall:
            case FaultClass::kFifoStuckData:
                if (f.unit >= soc.num_channels()) {
                    bad_fault(f, "channel index out of range");
                }
                fifo_groups[f.unit].push_back(Trigger{f});
                break;
            case FaultClass::kRestartGlitch:
                if (f.unit >= soc.num_sbs()) {
                    bad_fault(f, "SB index out of range");
                }
                clock_groups[f.unit].push_back(Trigger{f});
                break;
        }
    }

    if (!wire_drops_.empty()) {
        soc.scheduler().set_interceptor(
            [this](const sim::EventTag& tag, sim::Time) {
                if (tag.label == nullptr ||
                    std::strcmp(tag.label, "token.arrive") != 0) {
                    return true;
                }
                bool keep = true;
                for (auto& t : wire_drops_) {
                    if (t.actor != tag.actor) continue;
                    ++t.seen;
                    if (!t.done && t.seen == t.fault.nth) {
                        t.done = true;
                        ++fired_;
                        keep = false;
                    }
                }
                return keep;
            });
    }

    for (auto& [node, triggers] : dup_groups) {
        node_triggers_.push_back(std::move(triggers));
        const std::size_t g = node_triggers_.size() - 1;
        hooked_nodes_.push_back(node);
        node->set_pass_fault([this, g] {
            unsigned copies = 1;
            for (auto& t : node_triggers_[g]) {
                ++t.seen;
                if (!t.done && t.seen == t.fault.nth) {
                    t.done = true;
                    ++fired_;
                    copies = 2;
                }
            }
            return copies;
        });
    }

    for (auto& [channel, triggers] : fifo_groups) {
        fifo_triggers_.push_back(std::move(triggers));
        const std::size_t g = fifo_triggers_.size() - 1;
        hooked_fifos_.push_back(channel);
        soc.fifo(channel).set_stage_fault(
            [this, g](std::size_t, Word) {
                achan::SelfTimedFifo::StageFault out;
                for (auto& t : fifo_triggers_[g]) {
                    ++t.seen;
                    if (!t.done && t.seen == t.fault.nth) {
                        t.done = true;
                        ++fired_;
                        if (t.fault.cls == FaultClass::kFifoStall) {
                            out.extra_delay += t.fault.value;
                        } else {
                            out.force_word = t.fault.value;
                        }
                    }
                }
                return out;
            });
    }

    for (auto& [sb, triggers] : clock_groups) {
        clock_triggers_.push_back(std::move(triggers));
        const std::size_t g = clock_triggers_.size() - 1;
        hooked_clocks_.push_back(sb);
        soc.wrapper(sb).clock().set_restart_fault([this, g] {
            sim::Time extra = 0;
            for (auto& t : clock_triggers_[g]) {
                ++t.seen;
                if (!t.done && t.seen == t.fault.nth) {
                    t.done = true;
                    ++fired_;
                    extra += t.fault.value;
                }
            }
            return extra;
        });
    }
}

void Injector::detach() {
    if (soc_ == nullptr) return;
    if (!wire_drops_.empty()) sched_->set_interceptor({});
    for (auto* node : hooked_nodes_) node->set_pass_fault({});
    for (const std::size_t i : hooked_fifos_) soc_->fifo(i).set_stage_fault({});
    for (const std::size_t sb : hooked_clocks_) {
        soc_->wrapper(sb).clock().set_restart_fault({});
    }
    soc_ = nullptr;
}

}  // namespace st::fuzz
