#pragma once

// Test-only oracles for the shared transitive-stall kernel
// (deadlock/fixpoint.hpp): the two fixpoint loops it replaced, kept as they
// were so the differential test can hold the kernel to their results.

#include <cstddef>
#include <vector>

#include "deadlock/fixpoint.hpp"
#include "deadlock/rules.hpp"
#include "sva/graph.hpp"
#include "sva/passes.hpp"
#include "system/spec.hpp"

namespace st::oracle {

/// dl::check_rules before the kernel: each sweep scans every node for
/// cross(n), O(nodes^2), under an (sbs+2)*(nodes+2) sweep cap.
struct LegacyRules {
    dl::RuleReport report;
    /// Per-node stall values, in dl::stall_stations order.
    std::vector<sim::Time> stall;
    /// The old advisory loop indexed spec.rings with multi-ring ids, which
    /// is out of range (it crashed). Such advisories are left out here and
    /// counted instead.
    std::size_t skipped_multi_ring_advisories = 0;
};
LegacyRules check_rules(const sys::SocSpec& spec);

/// sva-deadlock's fixpoint before the kernel: in-place sweeps over
/// per-station coupling lists built from the graph, argmax predecessors
/// with the lowest index on ties, divergence when round |V|+2 still grows.
dl::StallFixpoint coupling_fixpoint(const sva::TokenFlowGraph& g);

/// sva::pass_deadlock before the kernel, formatted from
/// coupling_fixpoint().
std::vector<sva::Obligation> pass_deadlock(const sva::TokenFlowGraph& g);

}  // namespace st::oracle
