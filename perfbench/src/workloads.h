// The benchmark's workloads. Each generates its inputs from the seed,
// sets up, measures for the requested time and checks its outputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// DFP and BFGS on cri2 and red2: optimizer-heavy sparse programs.
Outcome RunPaperSparse(const Options& options);

/// GNMF and logistic regression on red1: execute-heavy dense programs.
Outcome RunPaperDense(const Options& options);

/// Zipf-popular scripts against the plan service: open loop, then
/// closed loop.
Outcome RunServeZipf(const Options& options);

/// Mixes the run seed with a per-input salt (splitmix64).
uint64_t MixSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
