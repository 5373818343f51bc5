/**
 * @file
 * The benchmark's workloads.  Each runs its set-up and rounds, checks
 * its outputs, and fills @p rep with the metrics it measured: the
 * end-to-end ones in an untraced run, the per-layer ones in a traced
 * run.
 */
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_app_amortize(const Options& opt, Report& rep);
void run_reorder_heavy(const Options& opt, Report& rep);
void run_serve_mix(const Options& opt, Report& rep);

} // namespace perfbench
