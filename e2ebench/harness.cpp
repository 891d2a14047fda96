#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace st::e2e {

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::int32_t SpanLog::open(const char* name, std::uint64_t op) {
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? -1 : stack_.back();
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(id);
    // Read the clock last so the bookkeeping above is not inside the span.
    spans_.back().start_ns = now_ns();
    return id;
}

void SpanLog::close(std::int32_t id) {
    const std::int64_t t = now_ns();
    spans_[static_cast<std::size_t>(id)].end_ns = t;
    if (stack_.empty() || stack_.back() != id) {
        throw std::logic_error("SpanLog: spans closed out of order");
    }
    stack_.pop_back();
}

bool SpanLog::is_instrumentation(const char* name) {
    return std::strncmp(name, "bench.", 6) == 0;
}

double SpanLog::total_us(const std::string& name) const {
    double t = 0;
    for (const Span& s : spans_) {
        if (name == s.name) t += s.us();
    }
    return t;
}

std::size_t SpanLog::count(const std::string& name) const {
    std::size_t n = 0;
    for (const Span& s : spans_) n += name == s.name ? 1 : 0;
    return n;
}

double SpanLog::root_us() const {
    double t = 0;
    for (const Span& s : spans_) {
        if (s.parent < 0) t += s.us();
        if (is_instrumentation(s.name)) t -= s.us();
    }
    return t;
}

double SpanLog::attributed_us() const {
    double t = 0;
    for (const Span& s : spans_) {
        if (s.parent < 0 || std::strcmp(s.name, kOp) == 0 ||
            is_instrumentation(s.name)) {
            continue;
        }
        t += s.us();
    }
    return t;
}

void SpanLog::write_tsv(const std::string& path) const {
    std::ofstream os(path, std::ios::binary);
    os << "name\top\tparent\tstart_ns\tend_ns\n";
    for (const Span& s : spans_) {
        os << s.name << '\t' << s.op << '\t' << s.parent << '\t' << s.start_ns
           << '\t' << s.end_ns << '\n';
    }
    if (!os) throw std::runtime_error("cannot write span log " + path);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    for (Entry& e : entries_) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    entries_.push_back(Entry{name, value, unit});
}

std::string Metrics::to_json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        std::snprintf(buf, sizeof buf, "%.17g", e.value);
        out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
}

Fnv& Fnv::u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ull;
    }
    return *this;
}

Fnv& Fnv::str(const std::string& s) {
    u64(s.size());
    for (const char c : s) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 0x100000001b3ull;
    }
    return *this;
}

Fnv& Fnv::event(const std::optional<verify::IoEvent>& e) {
    u64(e.has_value());
    if (e) {
        u64(e->cycle).u64(static_cast<std::uint64_t>(e->dir)).u64(e->port);
        u64(static_cast<std::uint64_t>(e->word));
    }
    return *this;
}

Fnv& Fnv::locus(const verify::MismatchLocus& l) {
    u64(static_cast<std::uint64_t>(l.kind)).str(l.sb).u64(l.index);
    u64(l.cycle).u64(l.port).event(l.expected).event(l.actual);
    return *this;
}

std::uint64_t case_record(const fuzz::RunReport& r) {
    Fnv f;
    f.u64(static_cast<std::uint64_t>(r.outcome)).u64(r.goal_met);
    f.u64(r.faults_fired).u64(r.protocol_errors).locus(r.locus);
    return f.value();
}

std::uint64_t sweep_record(const verify::TraceDiff& d) {
    Fnv f;
    f.u64(d.identical).locus(d.locus);
    return f.value();
}

}  // namespace st::e2e
