// Application Master (paper §5.1): per-job agent that requests containers
// for the tasks of its DAG, tracks their execution, sequences stages, and
// re-runs killed tasks. This AM is the Tez-H analogue: the experiment driver
// feeds it container grants / completions / kills from the event simulation.

#ifndef HARVEST_SRC_JOBS_APP_MASTER_H_
#define HARVEST_SRC_JOBS_APP_MASTER_H_

#include <vector>

#include "src/jobs/dag.h"

namespace harvest {

// A stage's outstanding demand: `count` containers for tasks of `stage`.
struct TaskDemand {
  int stage = 0;
  int count = 0;
};

class AppMaster {
 public:
  AppMaster(JobId job, const JobDag* dag, double arrival_time);

  JobId job() const { return job_; }
  const JobDag& dag() const { return *dag_; }
  double arrival_time() const { return arrival_time_; }

  // Tasks that can be requested right now: pending tasks of unlocked stages.
  std::vector<TaskDemand> RunnableTasks() const;
  // Total pending tasks across unlocked stages.
  int PendingTasks() const;
  // Cores the runnable tasks need at once: RunnableTasks' counts times their
  // stages' per-task cores, without building the list.
  int RunnableCores() const;

  // The driver placed `count` containers for `stage`.
  void OnTasksScheduled(int stage, int count);
  // One task of `stage` finished. Returns true if the whole job completed.
  bool OnTaskComplete(int stage, double now);
  // One task of `stage` was killed; it returns to the pending pool and will
  // be re-requested (and re-run from scratch).
  void OnTaskKilled(int stage);

  bool done() const { return completed_stages_ == dag_->num_stages(); }
  double finish_time() const { return finish_time_; }
  // Job execution time (arrival to completion, includes queueing).
  double ExecutionSeconds() const { return finish_time_ - arrival_time_; }
  int64_t kills() const { return kills_; }

 private:
  bool StageUnlocked(int stage) const;

  JobId job_;
  const JobDag* dag_;
  double arrival_time_;
  double finish_time_ = -1.0;
  std::vector<int> pending_;    // tasks not yet granted a container
  std::vector<int> running_;    // tasks currently in containers
  std::vector<int> completed_;  // finished tasks
  int completed_stages_ = 0;
  int64_t kills_ = 0;
};

}  // namespace harvest

#endif  // HARVEST_SRC_JOBS_APP_MASTER_H_
