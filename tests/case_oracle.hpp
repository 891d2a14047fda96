#pragma once

// Test-only oracle for the campaign engine (fuzz::CaseRunner): the
// fresh-elaboration case path it replaced, kept as it was so the
// differential suite can hold the persistent rewound lane to its reports.
// Every case elaborates a private Soc from the perturbed spec, binds an
// Injector and an InvariantMonitor, runs bounded and classifies. With a
// warm-up prefix the nominal prefix is either restored from the campaign's
// shared snapshot or re-simulated on the fresh Soc.

#include <cstdint>
#include <functional>
#include <memory>

#include "fuzz/campaign.hpp"
#include "runner/runner.hpp"
#include "verify/io_trace.hpp"
#include "verify/streaming.hpp"

namespace st::oracle {

/// How the oracle reaches the end of a campaign's warm-up prefix.
enum class Warmup {
    kRestore,     ///< restore Campaign::warmup_prefix() into a fresh Soc
    kResimulate,  ///< run the nominal prefix on the fresh Soc, then settle
};

/// The fresh-elaboration CaseRunner: one capture and (streaming) one
/// checker reused across cases, a new Soc per case.
class CaseOracle {
  public:
    explicit CaseOracle(const fuzz::Campaign& campaign,
                        Warmup warmup = Warmup::kRestore);

    CaseOracle(const CaseOracle&) = delete;
    CaseOracle& operator=(const CaseOracle&) = delete;

    fuzz::RunReport run(const fuzz::FuzzCase& c);

  private:
    const fuzz::Campaign* campaign_;
    Warmup warmup_;
    verify::RunCapture cap_;
    std::unique_ptr<verify::StreamingChecker> checker_;
};

/// Serial Campaign::run on the oracle: the same case draws, shard
/// selection and in-order reduction, no checkpoints. `on_run` sees global
/// indices, as Campaign::run's does.
fuzz::CampaignSummary run_campaign(
    const fuzz::Campaign& campaign, std::uint64_t n_runs, std::uint64_t seed,
    runner::Shard shard = {}, Warmup warmup = Warmup::kRestore,
    const std::function<void(std::size_t, const fuzz::FuzzCase&,
                             const fuzz::RunReport&)>& on_run = {});

}  // namespace st::oracle
