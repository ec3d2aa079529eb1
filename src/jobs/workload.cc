#include "src/jobs/workload.h"

namespace harvest {

std::vector<JobArrival> GenerateArrivals(const WorkloadOptions& options, int suite_size,
                                         Rng& rng) {
  std::vector<JobArrival> arrivals;
  if (suite_size <= 0) {
    return arrivals;
  }
  double t = 0.0;
  while (true) {
    t += rng.Exponential(1.0 / options.mean_interarrival_seconds);
    if (t >= options.horizon_seconds) {
      break;
    }
    JobArrival arrival;
    arrival.time_seconds = t;
    arrival.query = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(suite_size)));
    arrivals.push_back(arrival);
  }
  return arrivals;
}

}  // namespace harvest
