// The four benchmark workloads (README.md describes each one's make-up and
// why it was chosen). Each runs its set-up, calls run.EndSetup(), measures
// for run.config().seconds, checks every answer and records its metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

void RunTrainEstimate(Run& run);
void RunPlanSearch(Run& run);
void RunWireServing(Run& run);
void RunZooChurn(Run& run);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
