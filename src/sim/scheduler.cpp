#include "sim/scheduler.hpp"

#include <stdexcept>

namespace st::sim {

namespace {
/// Cap on recorded races: a systemic ordering bug would otherwise flood the
/// record with one entry per clock cycle.
constexpr std::size_t kMaxRaceRecords = 64;

/// Cap on thread-local recycled slabs: 256 slabs x 64 events bounds a worker
/// thread's parked pool at a few MB while still covering the deepest queue
/// any bench topology produces.
constexpr std::size_t kMaxPooledSlabs = 256;
}  // namespace

std::vector<std::unique_ptr<Scheduler::Event[]>>& Scheduler::slab_pool() {
    thread_local std::vector<std::unique_ptr<Event[]>> pool;
    return pool;
}

std::size_t Scheduler::tls_pooled_slabs() { return slab_pool().size(); }

Scheduler::~Scheduler() {
    // Donate slabs to the thread's recycle pool instead of freeing them: a
    // sweep worker builds one Soc (one Scheduler) per case, and per-case
    // slab churn was contended allocator traffic across worker threads.
    // Pending callbacks (events never executed) live in slab slots; reset
    // every slot so nothing owned by a dead run survives into the pool.
    auto& pool = slab_pool();
    for (auto& slab : slabs_) {
        if (pool.size() >= kMaxPooledSlabs) break;
        for (std::size_t i = 0; i < kSlabSize; ++i) slab[i].cb.reset();
        pool.push_back(std::move(slab));
    }
}

void Scheduler::grow_pool() {
    auto& pool = slab_pool();
    if (!pool.empty()) {
        slabs_.push_back(std::move(pool.back()));
        pool.pop_back();
    } else {
        slabs_.push_back(std::make_unique<Event[]>(kSlabSize));
    }
    Event* base = slabs_.back().get();
    for (std::size_t i = kSlabSize; i-- > 0;) {
        base[i].next_free = free_;
        free_ = base + i;
    }
}

void Scheduler::release_event(Event* ev) noexcept {
    ev->cb.reset();
    ev->next_free = free_;
    free_ = ev;
}

void Scheduler::reject_schedule(Time t) const {
    if (t < now_) {
        throw std::logic_error("Scheduler: event scheduled in the past");
    }
    throw std::logic_error(
        "Scheduler: schedule_at during restore — use rearm()");
}

std::uint64_t Scheduler::settle() {
    // Nothing is pending before now(), so "at or before now()" is "at now()".
    std::uint64_t n = 0;
    while (step_until(now_)) ++n;
    return n;
}

void Scheduler::clear_pending() {
    queue_.drain([this](Event* ev) { release_event(ev); });
    stop_requested_ = false;
}

void Scheduler::save_state(snap::StateWriter& w, bool require_boundary) const {
    if (require_boundary && !at_slot_boundary()) {
        throw snap::SnapshotError(
            "Scheduler::save_state mid-slot — settle() first");
    }
    w.begin("sched");
    w.u64(now_);
    w.u64(next_seq_);
    w.u64(executed_);
    w.u64(dropped_);
    w.u64(queue_.size());
    w.end();
}

void Scheduler::begin_restore(snap::StateReader& r) {
    if (!queue_.empty() || restoring_) {
        throw snap::SnapshotError(
            "Scheduler::begin_restore on a non-fresh scheduler");
    }
    r.enter("sched");
    now_ = r.u64();
    next_seq_ = r.u64();
    executed_ = r.u64();
    dropped_ = r.u64();
    expected_pending_ = r.u64();
    r.leave();
    restoring_ = true;
    staged_.clear();
}

void Scheduler::rearm(Time t, Priority p, EventTag tag,
                      std::uint64_t orig_seq, Callback cb) {
    if (!restoring_) {
        throw std::logic_error("Scheduler: rearm outside restore");
    }
    if (t < now_) {
        throw snap::SnapshotError("rearm: event fire time in the past");
    }
    staged_.push_back(Staged{t, p, tag, orig_seq, std::move(cb)});
}

void Scheduler::end_restore() {
    if (!restoring_) {
        throw std::logic_error("Scheduler: end_restore outside restore");
    }
    restoring_ = false;
    if (staged_.size() != expected_pending_) {
        throw snap::SnapshotError(
            "restore re-armed " + std::to_string(staged_.size()) +
            " events but the snapshot recorded " +
            std::to_string(expected_pending_) +
            " pending — a component missed (or double-counted) an event");
    }
    // Re-insert under the ORIGINAL sequence numbers. Every orig_seq is
    // below the saved next_seq_, so restored events still sort ahead of
    // anything scheduled after the restore, ties break exactly as in the
    // saving run, and — because components persist their events' seqs —
    // the next snapshot of this scheduler is byte-identical to what the
    // saving run would have produced.
    std::sort(staged_.begin(), staged_.end(),
              [](const Staged& a, const Staged& b) {
                  return a.orig_seq < b.orig_seq;
              });
    for (std::size_t i = 1; i < staged_.size(); ++i) {
        if (staged_[i].orig_seq == staged_[i - 1].orig_seq) {
            throw snap::SnapshotError(
                "restore staged two events with seq " +
                std::to_string(staged_[i].orig_seq));
        }
    }
    if (!staged_.empty() && staged_.back().orig_seq >= next_seq_) {
        throw snap::SnapshotError(
            "restore staged seq " + std::to_string(staged_.back().orig_seq) +
            " >= the snapshot's next_seq " + std::to_string(next_seq_));
    }
    for (auto& s : staged_) {
        Event* ev = free_head();
        free_ = ev->next_free;
        ev->tag = s.tag;
        ev->cb = std::move(s.cb);
        queue_.push(s.t, static_cast<int>(s.p), s.orig_seq, ev);
    }
    staged_.clear();
}

void Scheduler::set_race_audit(bool on) {
    audit_ = on;
    group_.clear();
    group_priority_ = -1;
}

void Scheduler::audit_step(Time t, int priority, const EventTag& tag) {
    if (t != group_t_ || priority != group_priority_) {
        group_t_ = t;
        group_priority_ = priority;
        group_.clear();
    }
    if (tag.actor == nullptr) return;
    for (const auto& m : group_) {
        if (m.actor == tag.actor && races_.size() < kMaxRaceRecords) {
            RaceRecord r;
            r.t = t;
            r.priority = priority;
            r.actor = tag.actor;
            r.first = m.label != nullptr ? m.label : "?";
            r.second = tag.label != nullptr ? tag.label : "?";
            races_.push_back(std::move(r));
        }
    }
    group_.push_back(GroupMember{tag.actor, tag.label});
}

bool Scheduler::step_until(Time limit) {
    DispatchCore<Event*>::Entry e;
    if (!queue_.pop_until(limit, e)) return false;
    now_ = e.t;
    Event* ev = e.payload;
    if (interceptor_ && ev->tag.actor != nullptr &&
        !interceptor_(ev->tag, e.t)) {
        // Dropped: the transition never happened as far as any model can
        // tell. Invisible to the race audit — a lost event orders nothing.
        release_event(ev);
        ++dropped_;
        return true;
    }
    ++executed_;
    if (audit_) {
        audit_step(e.t, DispatchCore<Event*>::priority_of(e.key), ev->tag);
    }
    // Invoke in place. The record returns to the free list only once the
    // callback has returned — or thrown — so events it schedules take
    // other records.
    struct Recycle {
        Scheduler* s;
        Event* ev;
        ~Recycle() { s->release_event(ev); }
    } const recycle{this, ev};
    ev->cb();
    return true;
}

std::uint64_t Scheduler::run_until(Time t_end) {
    std::uint64_t n = 0;
    while (!stop_requested_ && step_until(t_end)) ++n;
    if (!stop_requested_ && now_ < t_end) now_ = t_end;
    return n;
}

std::uint64_t Scheduler::run(std::uint64_t max_events) {
    std::uint64_t n = 0;
    while (!stop_requested_ && n < max_events && step()) ++n;
    return n;
}

}  // namespace st::sim
