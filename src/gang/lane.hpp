#pragma once

#include <memory>

#include "gang/program.hpp"
#include "snap/snapshot.hpp"
#include "system/invariant_monitor.hpp"
#include "system/soc.hpp"
#include "verify/streaming.hpp"
#include "verify/trace_arena.hpp"

namespace st::gang {

/// One persistent lane of the campaign engine: a Soc elaborated once from
/// the *nominal* spec, plus the per-run companions a freshly elaborated
/// case would construct each time — the trace capture, an (optional)
/// attached streaming checker, and an (optional) invariant monitor.
///
/// The program/state decomposition: the gang::Program — spec, pristine
/// image, and its pre-validated rewind plan — is process-wide and shared by
/// every lane on the same spec digest (one elaboration, one serialization,
/// one plan per process, not per lane). What stays per-lane is exactly what
/// a run mutates: the Soc's live state, the capture's streams, the
/// checker's verdict, the monitor's phase trackers. The reset point is
/// `pristine()` — the Program's image of the freshly started Soc, restored
/// through the plan so a rewind re-parses no framing — or any boundary
/// snapshot from an identically elaborated Soc (a campaign's shared
/// warm-up prefix).
///
/// Delay registers are NOT reset by a rewind. Clock periods and FIFO stage
/// delays ride in the image, but ring hop delays are live registers outside
/// it, so a rewound lane keeps the previous case's ring perturbation (after
/// a 200% case on pair, ring(0).hop_delay(0) still reads 1800 ps, not the
/// nominal 900). Callers must call `sys::apply_live` after every rewind —
/// with the nominal DelayConfig for a nominal run — as fuzz::CaseRunner
/// does. Rewind + apply_live is then bit-identical to elaborating the
/// perturbed spec afresh (restore-equivalence; docs/PERF.md).
///
/// Construct on the thread that will run the lane (the capture pins that
/// thread's trace arena), which `runner::sweep_ctx`'s make_ctx contract
/// guarantees.
class Lane {
  public:
    struct Options {
        /// Attach a verify::StreamingChecker over this golden index
        /// (nullptr: no online checking — the batch/offline mode).
        const verify::GoldenIndex* golden = nullptr;
        /// Attach a sys::InvariantMonitor (campaign lanes: yes).
        bool monitor = false;
    };

    /// Share `program` (the normal path: every lane on one spec hands in
    /// the same Program, usually via Program::get).
    Lane(std::shared_ptr<const Program> program, const Options& opt);
    /// Convenience: resolve the program through the registry first.
    Lane(const sys::SocSpec& nominal_spec, const Options& opt)
        : Lane(Program::get(nominal_spec), opt) {}

    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    /// Rewind to the freshly-started state (zero events executed). Apart
    /// from the ring hop delays (see above) the lane is then
    /// indistinguishable from a just-elaborated, just-started Soc of the
    /// nominal spec. Uses the program's rewind plan, so no snapshot framing
    /// is re-parsed.
    void rewind();

    /// Rewind to an explicit boundary image (a campaign's shared warm-up
    /// prefix) through its pre-validated plan (nullptr: strict parse). The
    /// monitor (if any) is re-armed from the restored phases; an attached
    /// checker re-derives its verdict state from the replayed trace prefix.
    void rewind(const snap::Snapshot& image, const snap::RewindPlan* plan);

    sys::Soc& soc() { return *soc_; }
    verify::RunCapture& capture() { return cap_; }
    verify::StreamingChecker* checker() { return checker_.get(); }
    sys::InvariantMonitor* monitor() { return monitor_.get(); }
    /// The shared immutable program this lane runs.
    const std::shared_ptr<const Program>& program() const { return prog_; }
    const snap::Snapshot& pristine() const { return prog_->pristine(); }

  private:
    std::shared_ptr<const Program> prog_;
    verify::RunCapture cap_;
    std::unique_ptr<verify::StreamingChecker> checker_;
    std::unique_ptr<sys::Soc> soc_;
    std::unique_ptr<sys::InvariantMonitor> monitor_;
};

}  // namespace st::gang
