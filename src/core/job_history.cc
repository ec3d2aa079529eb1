#include "src/core/job_history.h"

namespace harvest {

void JobHistory::RecordRun(const std::string& job_name, double duration_seconds) {
  last_duration_[job_name] = duration_seconds;
}

JobType JobHistory::TypeOf(const std::string& job_name) const {
  auto it = last_duration_.find(job_name);
  if (it == last_duration_.end()) {
    // First guess for an unseen job (paper §4.1).
    return JobType::kMedium;
  }
  return thresholds_.Categorize(it->second);
}

}  // namespace harvest
