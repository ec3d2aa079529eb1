// Job execution DAGs (paper §4.1, Fig 7). Tez executes complex jobs as DAGs
// of stages (mappers/reducers); Tez-H estimates a job's maximum concurrent
// resource need with a breadth-first traversal of the DAG and requests that
// many containers from RM-H.

#ifndef HARVEST_SRC_JOBS_DAG_H_
#define HARVEST_SRC_JOBS_DAG_H_

#include <string>
#include <vector>

#include "src/cluster/types.h"

namespace harvest {

// One DAG vertex: `num_tasks` identical tasks, each running for
// `task_seconds` in one container of shape `per_task`.
struct Stage {
  std::string name;
  int num_tasks = 1;
  double task_seconds = 60.0;
  Resources per_task{1, 2048};
  // Indices of stages that must fully complete before this stage starts.
  std::vector<int> parents;
};

class JobDag {
 public:
  JobDag() = default;
  JobDag(std::string name, std::vector<Stage> stages);

  const std::string& name() const { return name_; }
  const std::vector<Stage>& stages() const { return stages_; }
  const Stage& stage(int i) const { return stages_[static_cast<size_t>(i)]; }
  int num_stages() const { return static_cast<int>(stages_.size()); }

  // BFS level of each stage (longest path from a root, in edges).
  std::vector<int> Levels() const;

  // The paper's estimate of maximum concurrent resource need: the largest
  // sum of task counts across any BFS level (469 for TPC-DS query 19).
  int MaxConcurrentTasks() const;
  // Same, in cores.
  int MaxConcurrentCores() const;

  // Lower bound on completion: longest parent chain of stage durations,
  // assuming unlimited containers.
  double CriticalPathSeconds() const;

  // Multiplies all task durations (the simulator's job scaling, paper
  // §6.1); task counts stay as they are.
  JobDag Scaled(double duration_factor) const;

  // Validates parent indices and acyclicity (topological order exists).
  bool Validate() const;

 private:
  std::string name_;
  std::vector<Stage> stages_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_JOBS_DAG_H_
