#pragma once

// Shared plumbing of the end-to-end benchmark: host-time clocks, the
// in-memory span log of the traced run, the metric list printed as the
// result line, and the canonical check record every op is reduced to.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "verify/io_trace.hpp"

namespace st::e2e {

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double seconds_since(std::int64_t t0_ns) {
    return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

double median(std::vector<double> v);

/// One timed interval of the traced run: a layer boundary around one public
/// call. Spans of one op share `op`; `parent` is the index of the enclosing
/// span in the log (-1 for a root).
struct Span {
    const char* name = nullptr;  ///< static string
    std::uint64_t op = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    double us() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
};

/// Spans are kept in memory while the traced run executes and written out
/// once it ends. Names under "bench." mark the benchmark's own
/// instrumentation (statistics collection, event-class probes): their time
/// belongs to no layer and is excluded from both sides of the attribution.
class SpanLog {
  public:
    /// Container span around one op; its children are the layer spans.
    static constexpr const char* kOp = "op";

    /// RAII span: opens on construction (child of the innermost open span),
    /// closes on destruction.
    class Scope {
      public:
        Scope(SpanLog& log, const char* name, std::uint64_t op)
            : log_(log), id_(log.open(name, op)) {}
        ~Scope() { log_.close(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanLog& log_;
        std::int32_t id_;
    };

    std::int32_t open(const char* name, std::uint64_t op);
    void close(std::int32_t id);

    const std::vector<Span>& spans() const { return spans_; }

    /// Summed duration (us) of every span with this name.
    double total_us(const std::string& name) const;
    /// Number of spans with this name.
    std::size_t count(const std::string& name) const;
    /// Summed duration of root spans (one per engine call) minus every
    /// instrumentation span: the traced run's wall time.
    double root_us() const;
    /// Summed duration of the layer spans: every span that is neither a
    /// root, nor an op container (kOp), nor instrumentation. A root's or an
    /// op's self time is time no layer span covers.
    double attributed_us() const;

    /// Tab-separated dump: name, op, parent, start_ns, end_ns.
    void write_tsv(const std::string& path) const;

    static bool is_instrumentation(const char* name);

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/// Ordered metric list of the result line.
class Metrics {
  public:
    void set(const std::string& name, double value, const std::string& unit);
    std::string to_json() const;

  private:
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/// FNV-1a accumulator for canonical op records.
class Fnv {
  public:
    Fnv& u64(std::uint64_t v);
    Fnv& str(const std::string& s);
    Fnv& event(const std::optional<verify::IoEvent>& e);
    Fnv& locus(const verify::MismatchLocus& l);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Canonical record of one campaign case: outcome, goal, fired faults,
/// protocol errors and the structured mismatch locus. The scheduler event
/// count and the free-text detail are deliberately excluded — a
/// simulator-only change may legitimately change how many events a run
/// takes; it may not change what the run observed.
std::uint64_t case_record(const fuzz::RunReport& r);

/// Canonical record of one sweep perturbation: match verdict and locus.
std::uint64_t sweep_record(const verify::TraceDiff& d);

/// 16-bit fold of a record, the unit the pinned reference file stores.
inline std::uint16_t fold16(std::uint64_t h) {
    return static_cast<std::uint16_t>(h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48));
}

}  // namespace st::e2e
