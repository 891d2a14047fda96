#include <cstring>
#include <vector>

#include "gang/lane.hpp"
#include "gang/program.hpp"
#include "system/stats.hpp"
#include "workload.hpp"

namespace st::e2e {

void EventClassProbe::attach(sys::Soc& soc) {
    run_tagged_ = 0;
    open_ = -1;
    soc.scheduler().set_interceptor(
        [this](const sim::EventTag& tag, sim::Time) { return on_event(tag); });
}

void EventClassProbe::finish_run(sys::Soc& soc) {
    open_ = -1;
    untagged_ += soc.scheduler().events_executed() - run_tagged_;
    soc.scheduler().set_interceptor({});
}

EventClassProbe::Class EventClassProbe::classify(const char* label) {
    for (const auto& [ptr, cls] : cache_) {
        if (ptr == label) return cls;
    }
    static const std::pair<const char*, Class> kByLabel[] = {
        {"clock.edge", kClockEdge},     {"clock.commit", kClockCommit},
        {"clock.gate", kClockGate},     {"clock.monitor", kClockMonitor},
        {"token.arrive", kToken},       {"link.req", kLink},
        {"link.ack", kLink},            {"link.rtz", kLink},
        {"fifo.ripple", kFifo},
    };
    Class cls = kOther;
    for (const auto& [name, c] : kByLabel) {
        if (label != nullptr && std::strcmp(label, name) == 0) cls = c;
    }
    cache_.emplace_back(label, cls);
    return cls;
}

bool EventClassProbe::on_event(const sim::EventTag& tag) {
    const Class cls = classify(tag.label);
    ++counts_[cls];
    ++run_tagged_;
    // Pseudo-random 1-in-kSampleEvery selection (xorshift, fixed start):
    // a fixed stride could alias with the periodic clock-edge pattern.
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const bool sample = rng_ % kSampleEvery == 0;
    if (open_ >= 0 || sample) {
        const std::int64_t t = now_ns();
        if (open_ >= 0) sampled_ns_[open_] += t - open_ns_;
        open_ = sample ? cls : -1;
        open_ns_ = t;
    }
    return true;
}

double EventClassProbe::share(std::initializer_list<Class> cs) const {
    std::int64_t total = 0;
    for (const std::int64_t ns : sampled_ns_) total += ns;
    std::int64_t part = 0;
    for (const Class c : cs) part += sampled_ns_[c];
    return total > 0 ? static_cast<double>(part) / static_cast<double>(total)
                     : 0.0;
}

void put_event_classes(const EventClassProbe* p, std::uint64_t ops,
                       Metrics& out) {
    using C = EventClassProbe;
    const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
    const auto per_op = [&](C::Class c) {
        return p ? static_cast<double>(p->count(c)) / n : 0.0;
    };
    out.set("clock.edge_events", per_op(C::kClockEdge), "count");
    out.set("clock.commit_events", per_op(C::kClockCommit), "count");
    out.set("clock.gate_events", per_op(C::kClockGate), "count");
    out.set("clock.monitor_events", per_op(C::kClockMonitor), "count");
    out.set("synchro.token_events", per_op(C::kToken), "count");
    out.set("async.link_events", per_op(C::kLink), "count");
    out.set("async.fifo_ripple_events", per_op(C::kFifo), "count");
    out.set("sim.untagged_events",
            p ? static_cast<double>(p->untagged() + p->count(C::kOther)) / n
              : 0.0,
            "count");
    const auto share = [&](std::initializer_list<C::Class> cs) {
        return p ? p->share(cs) : 0.0;
    };
    out.set("clock.time_share",
            share({C::kClockEdge, C::kClockCommit, C::kClockGate}), "frac");
    out.set("clock.monitor_time_share", share({C::kClockMonitor}), "frac");
    out.set("synchro.time_share", share({C::kToken}), "frac");
    out.set("async.link_time_share", share({C::kLink}), "frac");
    out.set("async.fifo_time_share", share({C::kFifo}), "frac");
}

void SimStats::add(sys::Soc& soc) {
    const sys::RunStats st = sys::collect_stats(soc);
    sim_time_ps += static_cast<double>(st.sim_time);
    for (const auto& sb : st.sbs) stop_events += static_cast<double>(sb.stop_events);
    for (const auto& r : st.rings) late_tokens += static_cast<double>(r.late_arrivals);
    for (const auto& c : st.channels) channel_words += static_cast<double>(c.words);
}

void SimStats::put(std::uint64_t ops, Metrics& out) const {
    const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
    out.set("system.sim_time_ps", sim_time_ps / n, "ps");
    out.set("system.stop_events", stop_events / n, "count");
    out.set("system.late_tokens", late_tokens / n, "count");
    out.set("system.channel_words", channel_words / n, "count");
}

void put_rewind_layers(const sys::SocSpec& spec,
                       const sys::DelayConfig& delays, int reps,
                       Metrics& out) {
    std::vector<double> elab_ms;
    std::shared_ptr<const gang::Program> prog;
    for (int i = 0; i < 3; ++i) {
        prog.reset();
        const std::int64_t t0 = now_ns();
        prog = gang::Program::elaborate(spec);
        elab_ms.push_back(seconds_since(t0) * 1e3);
    }
    std::vector<double> ctor_ms;
    std::unique_ptr<gang::Lane> lane;
    for (int i = 0; i < 3; ++i) {
        lane.reset();
        const std::int64_t t0 = now_ns();
        lane = std::make_unique<gang::Lane>(prog, gang::Lane::Options{});
        ctor_ms.push_back(seconds_since(t0) * 1e3);
    }
    // Rewind from a mid-run state, as a lane does between cases: a few
    // simulated cycles leave events pending and state dirty.
    std::vector<double> rewind_us;
    for (int i = 0; i < reps; ++i) {
        lane->soc().run_cycles(4, sim::ms(2000));
        const std::int64_t t0 = now_ns();
        lane->rewind();
        sys::apply_live(lane->soc(), delays);
        rewind_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    const std::vector<std::uint8_t>& image = prog->pristine().bytes();
    const double bytes = static_cast<double>(image.size());
    const double rewind = median(rewind_us);

    // Copy bound at the same size: both buffers written once (prefaulted)
    // and copied once untimed (warm) before the timed copies.
    std::vector<std::uint8_t> src(image.begin(), image.end());
    std::vector<std::uint8_t> dst(image.size(), 0);
    std::vector<double> copy_us;
    for (int i = 0; i < reps + 1; ++i) {
        const std::int64_t t0 = now_ns();
        std::memcpy(dst.data(), src.data(), src.size());
        const double us = static_cast<double>(now_ns() - t0) * 1e-3;
        if (i > 0) copy_us.push_back(us);
        src[static_cast<std::size_t>(i) % src.size()] ^= dst[0];
    }
    const double copy = median(copy_us);

    out.set("gang.program_elaborate_ms", median(elab_ms), "ms");
    out.set("gang.lane_ctor_ms", median(ctor_ms), "ms");
    out.set("gang.rewind_us", rewind, "us");
    out.set("snap.image_bytes", bytes, "bytes");
    out.set("snap.rewind_gbps", rewind > 0 ? bytes / (rewind * 1e3) : 0, "GB/s");
    out.set("snap.memcpy_gbps", copy > 0 ? bytes / (copy * 1e3) : 0, "GB/s");
}

}  // namespace st::e2e
