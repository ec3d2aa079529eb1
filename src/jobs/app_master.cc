#include "src/jobs/app_master.h"

#include "src/util/logging.h"

namespace harvest {

AppMaster::AppMaster(JobId job, const JobDag* dag, double arrival_time)
    : job_(job), dag_(dag), arrival_time_(arrival_time) {
  const int n = dag_->num_stages();
  pending_.resize(static_cast<size_t>(n));
  running_.assign(static_cast<size_t>(n), 0);
  completed_.assign(static_cast<size_t>(n), 0);
  for (int s = 0; s < n; ++s) {
    pending_[static_cast<size_t>(s)] = dag_->stage(s).num_tasks;
  }
}

bool AppMaster::StageUnlocked(int stage) const {
  for (int parent : dag_->stage(stage).parents) {
    if (completed_[static_cast<size_t>(parent)] < dag_->stage(parent).num_tasks) {
      return false;
    }
  }
  return true;
}

std::vector<TaskDemand> AppMaster::RunnableTasks() const {
  std::vector<TaskDemand> demands;
  for (int s = 0; s < dag_->num_stages(); ++s) {
    if (pending_[static_cast<size_t>(s)] > 0 && StageUnlocked(s)) {
      demands.push_back(TaskDemand{s, pending_[static_cast<size_t>(s)]});
    }
  }
  return demands;
}

int AppMaster::PendingTasks() const {
  int total = 0;
  for (int s = 0; s < dag_->num_stages(); ++s) {
    if (StageUnlocked(s)) {
      total += pending_[static_cast<size_t>(s)];
    }
  }
  return total;
}

int AppMaster::RunnableCores() const {
  int cores = 0;
  for (int s = 0; s < dag_->num_stages(); ++s) {
    if (pending_[static_cast<size_t>(s)] > 0 && StageUnlocked(s)) {
      cores += pending_[static_cast<size_t>(s)] * dag_->stage(s).per_task.cores;
    }
  }
  return cores;
}

void AppMaster::OnTasksScheduled(int stage, int count) {
  HARVEST_CHECK(pending_[static_cast<size_t>(stage)] >= count)
      << "scheduled more tasks than pending for stage " << stage;
  pending_[static_cast<size_t>(stage)] -= count;
  running_[static_cast<size_t>(stage)] += count;
}

bool AppMaster::OnTaskComplete(int stage, double now) {
  HARVEST_CHECK(running_[static_cast<size_t>(stage)] > 0)
      << "completion for stage " << stage << " with no running tasks";
  --running_[static_cast<size_t>(stage)];
  ++completed_[static_cast<size_t>(stage)];
  if (completed_[static_cast<size_t>(stage)] == dag_->stage(stage).num_tasks) {
    ++completed_stages_;
  }
  if (done()) {
    finish_time_ = now;
    return true;
  }
  return false;
}

void AppMaster::OnTaskKilled(int stage) {
  HARVEST_CHECK(running_[static_cast<size_t>(stage)] > 0)
      << "kill for stage " << stage << " with no running tasks";
  --running_[static_cast<size_t>(stage)];
  ++pending_[static_cast<size_t>(stage)];
  ++kills_;
}

}  // namespace harvest
