#include "src/jobs/dag.h"

#include <algorithm>

#include "src/util/logging.h"

namespace harvest {

JobDag::JobDag(std::string name, std::vector<Stage> stages)
    : name_(std::move(name)), stages_(std::move(stages)) {
  HARVEST_CHECK(Validate()) << "invalid DAG " << name_;
}

std::vector<int> JobDag::Levels() const {
  std::vector<int> level(stages_.size(), 0);
  // Stages are stored in topological order (Validate enforces parents come
  // first), so one pass suffices.
  for (size_t i = 0; i < stages_.size(); ++i) {
    for (int parent : stages_[i].parents) {
      level[i] = std::max(level[i], level[static_cast<size_t>(parent)] + 1);
    }
  }
  return level;
}

int JobDag::MaxConcurrentTasks() const {
  std::vector<int> level = Levels();
  int max_level = 0;
  for (int l : level) {
    max_level = std::max(max_level, l);
  }
  std::vector<int> tasks_at(static_cast<size_t>(max_level) + 1, 0);
  for (size_t i = 0; i < stages_.size(); ++i) {
    tasks_at[static_cast<size_t>(level[i])] += stages_[i].num_tasks;
  }
  int best = 0;
  for (int tasks : tasks_at) {
    best = std::max(best, tasks);
  }
  return best;
}

int JobDag::MaxConcurrentCores() const {
  std::vector<int> level = Levels();
  int max_level = 0;
  for (int l : level) {
    max_level = std::max(max_level, l);
  }
  std::vector<int> cores_at(static_cast<size_t>(max_level) + 1, 0);
  for (size_t i = 0; i < stages_.size(); ++i) {
    cores_at[static_cast<size_t>(level[i])] += stages_[i].num_tasks * stages_[i].per_task.cores;
  }
  int best = 0;
  for (int cores : cores_at) {
    best = std::max(best, cores);
  }
  return best;
}

double JobDag::CriticalPathSeconds() const {
  std::vector<double> finish(stages_.size(), 0.0);
  double best = 0.0;
  for (size_t i = 0; i < stages_.size(); ++i) {
    double start = 0.0;
    for (int parent : stages_[i].parents) {
      start = std::max(start, finish[static_cast<size_t>(parent)]);
    }
    finish[i] = start + stages_[i].task_seconds;
    best = std::max(best, finish[i]);
  }
  return best;
}

JobDag JobDag::Scaled(double duration_factor) const {
  std::vector<Stage> scaled = stages_;
  for (auto& stage : scaled) {
    stage.task_seconds *= duration_factor;
  }
  return JobDag(name_, std::move(scaled));
}

bool JobDag::Validate() const {
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i].num_tasks <= 0 || stages_[i].task_seconds <= 0.0) {
      return false;
    }
    for (int parent : stages_[i].parents) {
      // Topological storage order: every parent precedes its child, which
      // also rules out cycles.
      if (parent < 0 || static_cast<size_t>(parent) >= i) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace harvest
