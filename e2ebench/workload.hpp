#pragma once

// The benchmark's workload interface and the per-layer probes shared by
// the dynamic workloads.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/scheduler.hpp"
#include "system/delay_config.hpp"
#include "system/soc.hpp"
#include "system/spec.hpp"

namespace st::e2e {

struct RunContext {
    std::uint64_t seed = 1;
    std::size_t jobs = 1;       ///< parallel-phase workers
    std::string workdir;        ///< scratch files (checkpoints, span log)
    std::string data_dir;       ///< the repository's tests/data
    std::string reference_dir;  ///< pinned references kept with the bench
};

/// One benchmark workload. Its ops form a stream fixed by the seed: op i is
/// the same input in every phase, so the serial phase replays a prefix of
/// the parallel phase's inputs and the two must agree record for record.
class Workload {
  public:
    virtual ~Workload() = default;

    /// What one op is ("case", "perturbation", "spec").
    virtual const char* op_name() const = 0;

    /// Build everything the ops share (spec generation, campaign
    /// construction or golden capture, program elaboration). Called several
    /// times to take a median; each call replaces the previous state.
    virtual void setup() = 0;

    /// True when the set-up samples taken between slices must rebuild this
    /// instance rather than a scratch one: a scratch instance built while
    /// this one lives would share process-wide state it holds (the
    /// gang::Program registry) and skip work a fresh process pays.
    virtual bool resample_setup_in_place() const { return false; }

    /// Op counts of a timed call are whole multiples of this (a workload
    /// whose ops differ widely in cost measures whole rounds of its mix).
    virtual std::uint64_t op_quantum() const { return 1; }

    /// Generate the inputs of ops [0, n) ahead of a timed call.
    virtual void prepare(std::uint64_t /*n*/) {}

    /// Execute ops [0, n) through the workload's public entry point with
    /// `jobs` closed-loop workers; records[i] receives op i's canonical
    /// record. An exception fails every op of the call.
    virtual void run(std::uint64_t n, std::size_t jobs,
                     std::vector<std::uint64_t>& records) = 0;

    /// True when op i's record matches the reference pinned for it.
    virtual bool matches_reference(std::uint64_t i,
                                   std::uint64_t record) const = 0;

    /// Ops replayed by the traced run: a fixed count, so the simulated
    /// statistics and event counts it reports repeat exactly for one seed.
    virtual std::uint64_t traced_ops() const = 0;

    /// Serial replica of run() over ops [0, n) with a span around every
    /// public call the default engine makes per op. Writes the layer
    /// metrics it owns into `out`; returns the number of ops whose replica
    /// result differs from the engine's own single-op entry point
    /// (Campaign::run_case, DeterminismHarness::check, lint + verify).
    virtual std::uint64_t traced(std::uint64_t n, SpanLog& log,
                                 Metrics& out) = 0;

    /// Set-up breakdown and program/rewind probes measured on the
    /// workload's spec (trace mode only).
    virtual void setup_layers(Metrics& out) = 0;
};

std::unique_ptr<Workload> make_sweep_workload(const RunContext& ctx);
std::unique_ptr<Workload> make_static_workload(const RunContext& ctx);

/// Pass-through scheduler interceptor (always returns true) that counts
/// tagged events by EventTag label and attributes simulate time to event
/// classes with a sampled timer: about one tagged event in kSampleEvery
/// opens a sample that the next tagged event closes, so a sample covers the
/// sampled event's callback plus any untagged events that ran before the
/// next tagged one.
class EventClassProbe {
  public:
    enum Class : std::uint8_t {
        kClockEdge,
        kClockCommit,
        kClockGate,
        kClockMonitor,
        kToken,
        kLink,
        kFifo,
        kOther,
        kNumClasses
    };
    static constexpr std::uint64_t kSampleEvery = 8;

    /// Install on `soc` (after any fault injector: it replaces the
    /// scheduler's interceptor). The probe must outlive the run.
    void attach(sys::Soc& soc);
    /// Close the run: drop the open sample, add the run's untagged events.
    void finish_run(sys::Soc& soc);

    std::uint64_t count(Class c) const { return counts_[c]; }
    std::uint64_t untagged() const { return untagged_; }
    /// Share of sampled time in the listed classes.
    double share(std::initializer_list<Class> cs) const;

  private:
    bool on_event(const sim::EventTag& tag);
    Class classify(const char* label);

    std::uint64_t counts_[kNumClasses] = {};
    std::int64_t sampled_ns_[kNumClasses] = {};
    std::uint64_t untagged_ = 0;
    std::uint64_t run_tagged_ = 0;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
    int open_ = -1;
    std::int64_t open_ns_ = 0;
    // Labels are string literals: classify each distinct pointer once.
    std::vector<std::pair<const char*, Class>> cache_;
};

/// Writes the event-class metrics of a probe averaged over `ops` runs (all
/// zero when `probe` is null: the workload cannot install one).
void put_event_classes(const EventClassProbe* probe, std::uint64_t ops,
                       Metrics& out);

/// Simulated statistics of finished runs (sys::collect_stats), summed.
struct SimStats {
    double sim_time_ps = 0;
    double stop_events = 0;
    double late_tokens = 0;
    double channel_words = 0;
    void add(sys::Soc& soc);
    void put(std::uint64_t ops, Metrics& out) const;
};

/// Program, lane and rewind probes on `spec`: gang::Program elaboration,
/// gang::Lane construction, Lane::rewind + sys::apply_live of `delays`,
/// and memcpy bandwidth at the pristine-image size.
void put_rewind_layers(const sys::SocSpec& spec,
                       const sys::DelayConfig& delays, int reps,
                       Metrics& out);

}  // namespace st::e2e
