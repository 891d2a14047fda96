#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "workload.hpp"

namespace st::e2e {

/// fuzz::Campaign::run workloads on the default (scalar, streaming) engine.
///
///  * fuzz-pair-faults: catalog spec `pair`, all six fault classes, a
///    100-cycle window, a progress checkpoint every kCheckpointEvery cases.
///    The seed picks one of the K campaign seeds of the pinned pool, pool
///    seed seed mod K, whose per-case records are kept in
///    reference/fuzz-pair-faults.ref. Ops run in blocks of kBlock cases,
///    each block that campaign's first kBlock cases, so a run touches one
///    pool entry and every other seed's cases stay unseen by it.
///  * campaign-mesh64: topo::generate(mesh, 64 SBs, seed 7), fault-free,
///    a 60-cycle window; op i is case i of the campaign seeded with the
///    workload seed, and every case must be deterministic.
class CampaignWorkload : public Workload {
  public:
    enum class Kind { kPairFaults, kMesh64 };
    static constexpr std::uint64_t kBlock = 4096;
    static constexpr std::uint64_t kCheckpointEvery = 256;

    CampaignWorkload(Kind kind, const RunContext& ctx,
                     bool with_reference = true);
    ~CampaignWorkload() override;

    const char* op_name() const override { return "case"; }
    void setup() override;
    /// The campaign holds its gang::Program through the process-wide
    /// registry: a second campaign built beside it would not elaborate.
    bool resample_setup_in_place() const override { return true; }
    void run(std::uint64_t n, std::size_t jobs,
             std::vector<std::uint64_t>& records) override;
    bool matches_reference(std::uint64_t i,
                           std::uint64_t record) const override;
    std::uint64_t traced_ops() const override;
    std::uint64_t traced(std::uint64_t n, SpanLog& log, Metrics& out) override;
    void setup_layers(Metrics& out) override;

    static std::string reference_path(const std::string& dir);
    /// Run every pool seed's block and write the pinned reference file.
    static void record_reference(const RunContext& ctx,
                                 const std::vector<std::uint64_t>& seeds,
                                 const std::string& path);

  private:
    struct Block {
        std::uint64_t campaign_seed;
        std::uint64_t first;  ///< op index of the block's case 0
        std::uint64_t n;
    };
    struct Replay;

    void load_reference();
    sys::SocSpec make_spec() const;
    std::vector<Block> blocks(std::uint64_t n) const;
    fuzz::CampaignControl control() const;
    /// Serial replica of run() over ops [0, n) with a span around every
    /// public call; `probe` (if set) is installed on every case's Soc.
    Replay replay(std::uint64_t n, SpanLog& log, EventClassProbe* probe);

    Kind kind_;
    RunContext ctx_;
    fuzz::CampaignConfig cfg_;
    std::string checkpoint_;
    std::vector<std::uint64_t> pool_seeds_;
    std::vector<std::vector<std::uint16_t>> reference_;
    std::unique_ptr<fuzz::Campaign> campaign_;
    double generate_ms_ = 0;
    double golden_ms_ = 0;
};

}  // namespace st::e2e
