// Job-length history (paper §4.1): a job is categorized short / medium / long
// by comparing the duration of its *last* execution against two thresholds.
// The paper stresses that this need not be an accurate runtime estimate --
// only a rough three-way bucketing -- and that a job consistently falls into
// the same type after the first guess. Jobs never seen before default to
// medium. The thresholds are the testbed's fixed 173 s / 433 s (§6.1), which
// the scheduling stage stretches by `job_duration_factor`; §4.1's derivation
// of thresholds from a duration history is not modeled.

#ifndef HARVEST_SRC_CORE_JOB_HISTORY_H_
#define HARVEST_SRC_CORE_JOB_HISTORY_H_

#include <string>
#include <unordered_map>

namespace harvest {

enum class JobType { kShort = 0, kMedium = 1, kLong = 2 };
inline constexpr int kNumJobTypes = 3;

// Testbed thresholds from paper §6.1 (seconds).
struct JobTypeThresholds {
  double short_below = 173.0;
  double long_above = 433.0;

  JobType Categorize(double last_duration_seconds) const {
    if (last_duration_seconds < short_below) {
      return JobType::kShort;
    }
    if (last_duration_seconds > long_above) {
      return JobType::kLong;
    }
    return JobType::kMedium;
  }
};

// Per-job-name history store.
class JobHistory {
 public:
  explicit JobHistory(JobTypeThresholds thresholds = {}) : thresholds_(thresholds) {}

  // Records a finished run.
  void RecordRun(const std::string& job_name, double duration_seconds);

  // Type for the next run: from the last recorded duration, or medium when
  // the job has never run.
  JobType TypeOf(const std::string& job_name) const;

 private:
  JobTypeThresholds thresholds_;
  std::unordered_map<std::string, double> last_duration_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_CORE_JOB_HISTORY_H_
