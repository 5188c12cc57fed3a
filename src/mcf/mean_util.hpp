// Exact oracle for the *mean*-utilisation objective (paper §IX lists
// "different utility functions" as further work; this is the most natural
// alternative to min-max).  `gddr_cli optimal` reports it next to U*.
//
// Minimising sum_e load(e)/c(e) decomposes per unit of traffic: each unit
// travelling edge e contributes 1/c(e) regardless of everything else, so
// the optimum routes every demand along its shortest path under edge
// weights 1/c(e) — no LP needed.  (Unlike min-max, the mean objective has
// no coupling between commodities.)  The routing achieving the optimum is
// routing::min_mean_utilisation_routing.
#pragma once

#include "graph/digraph.hpp"
#include "traffic/demand.hpp"

namespace gddr::mcf {

// Minimum achievable mean link utilisation (sum over edges of
// load/capacity, divided by |E|) for the given demands.
double min_mean_utilisation(const graph::DiGraph& g,
                            const traffic::DemandMatrix& dm);

}  // namespace gddr::mcf
