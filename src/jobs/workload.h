// Workload generation: batch jobs from the TPC-DS-like suite arrive with
// Poisson inter-arrival times (the paper's testbed uses a 300-second mean).

#ifndef HARVEST_SRC_JOBS_WORKLOAD_H_
#define HARVEST_SRC_JOBS_WORKLOAD_H_

#include <vector>

#include "src/jobs/dag.h"
#include "src/util/rng.h"

namespace harvest {

struct JobArrival {
  double time_seconds = 0.0;
  // Index into the suite.
  int query = 0;
};

struct WorkloadOptions {
  double mean_interarrival_seconds = 300.0;
  double horizon_seconds = 5.0 * 3600.0;
};

// Generates the arrival sequence over the horizon; each arrival's query is
// a uniform draw from the suite.
std::vector<JobArrival> GenerateArrivals(const WorkloadOptions& options, int suite_size, Rng& rng);

}  // namespace harvest

#endif  // HARVEST_SRC_JOBS_WORKLOAD_H_
