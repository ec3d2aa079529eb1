#include "src/jobs/app_master.h"

#include <gtest/gtest.h>

namespace harvest {
namespace {

Stage MakeStage(const char* name, int tasks, double seconds, std::vector<int> parents) {
  Stage stage;
  stage.name = name;
  stage.num_tasks = tasks;
  stage.task_seconds = seconds;
  stage.parents = std::move(parents);
  return stage;
}

JobDag TwoStageDag() {
  return JobDag("two", {MakeStage("map", 3, 10, {}), MakeStage("reduce", 2, 10, {0})});
}

TEST(AppMasterTest, InitiallyOnlyRootStagesRunnable) {
  JobDag dag = TwoStageDag();
  AppMaster am(1, &dag, 100.0);
  std::vector<TaskDemand> demands = am.RunnableTasks();
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands[0].stage, 0);
  EXPECT_EQ(demands[0].count, 3);
  EXPECT_EQ(am.PendingTasks(), 3);
  EXPECT_FALSE(am.done());
}

TEST(AppMasterTest, StageUnlocksWhenParentsComplete) {
  JobDag dag = TwoStageDag();
  AppMaster am(1, &dag, 0.0);
  am.OnTasksScheduled(0, 3);
  EXPECT_EQ(am.PendingTasks(), 0);
  EXPECT_FALSE(am.OnTaskComplete(0, 10.0));
  EXPECT_FALSE(am.OnTaskComplete(0, 10.0));
  EXPECT_TRUE(am.RunnableTasks().empty());  // map not fully done yet
  EXPECT_FALSE(am.OnTaskComplete(0, 10.0));
  std::vector<TaskDemand> demands = am.RunnableTasks();
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands[0].stage, 1);
  EXPECT_EQ(demands[0].count, 2);
}

TEST(AppMasterTest, CompletionOfLastTaskFinishesJob) {
  JobDag dag = TwoStageDag();
  AppMaster am(1, &dag, 5.0);
  am.OnTasksScheduled(0, 3);
  am.OnTaskComplete(0, 10.0);
  am.OnTaskComplete(0, 11.0);
  am.OnTaskComplete(0, 12.0);
  am.OnTasksScheduled(1, 2);
  EXPECT_FALSE(am.OnTaskComplete(1, 20.0));
  EXPECT_TRUE(am.OnTaskComplete(1, 25.0));
  EXPECT_TRUE(am.done());
  EXPECT_DOUBLE_EQ(am.finish_time(), 25.0);
  EXPECT_DOUBLE_EQ(am.ExecutionSeconds(), 20.0);
}

TEST(AppMasterTest, KilledTasksReturnToPending) {
  JobDag dag = TwoStageDag();
  AppMaster am(1, &dag, 0.0);
  am.OnTasksScheduled(0, 3);
  am.OnTaskKilled(0);
  EXPECT_EQ(am.kills(), 1);
  std::vector<TaskDemand> demands = am.RunnableTasks();
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands[0].count, 1);  // one task must re-run
  // Re-schedule and finish everything.
  am.OnTasksScheduled(0, 1);
  for (int i = 0; i < 3; ++i) {
    am.OnTaskComplete(0, 10.0);
  }
  am.OnTasksScheduled(1, 2);
  am.OnTaskComplete(1, 20.0);
  EXPECT_TRUE(am.OnTaskComplete(1, 21.0));
}

TEST(AppMasterTest, PartialSchedulingTracksRemainder) {
  JobDag dag = JobDag("wide", {MakeStage("w", 10, 5, {})});
  AppMaster am(2, &dag, 0.0);
  am.OnTasksScheduled(0, 4);
  EXPECT_EQ(am.PendingTasks(), 6);
  std::vector<TaskDemand> demands = am.RunnableTasks();
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands[0].count, 6);
}

// RunnableCores sums RunnableTasks' counts times their stages' cores.
int ListedRunnableCores(const AppMaster& am) {
  int cores = 0;
  for (const TaskDemand& demand : am.RunnableTasks()) {
    cores += demand.count * am.dag().stage(demand.stage).per_task.cores;
  }
  return cores;
}

TEST(AppMasterTest, DiamondDagUnlocksSinkAfterBothBranches) {
  std::vector<Stage> stages = {MakeStage("src", 1, 1, {}), MakeStage("l", 3, 1, {0}),
                               MakeStage("r", 2, 1, {0}), MakeStage("sink", 1, 1, {1, 2})};
  for (size_t s = 0; s < stages.size(); ++s) {
    stages[s].per_task.cores = static_cast<int>(s) + 1;
  }
  JobDag dag("diamond", std::move(stages));
  AppMaster am(3, &dag, 0.0);
  EXPECT_EQ(am.RunnableCores(), 1);
  am.OnTasksScheduled(0, 1);
  EXPECT_EQ(am.RunnableCores(), 0);
  am.OnTaskComplete(0, 1.0);
  // Both branches runnable in parallel.
  EXPECT_EQ(am.RunnableTasks().size(), 2u);
  EXPECT_EQ(am.RunnableCores(), 3 * 2 + 2 * 3);
  am.OnTasksScheduled(1, 2);
  EXPECT_EQ(am.RunnableCores(), ListedRunnableCores(am));
  am.OnTasksScheduled(1, 1);
  am.OnTasksScheduled(2, 2);
  for (int i = 0; i < 3; ++i) {
    am.OnTaskComplete(1, 2.0);
  }
  am.OnTaskComplete(2, 2.0);
  EXPECT_TRUE(am.RunnableTasks().empty());  // sink blocked on branch r
  EXPECT_EQ(am.RunnableCores(), 0);
  am.OnTaskComplete(2, 3.0);
  ASSERT_EQ(am.RunnableTasks().size(), 1u);
  EXPECT_EQ(am.RunnableTasks()[0].stage, 3);
  EXPECT_EQ(am.RunnableCores(), 4);
  EXPECT_EQ(am.RunnableCores(), ListedRunnableCores(am));
}

TEST(AppMasterTest, KillsAccumulate) {
  JobDag dag = JobDag("wide", {MakeStage("w", 5, 5, {})});
  AppMaster am(4, &dag, 0.0);
  am.OnTasksScheduled(0, 5);
  am.OnTaskKilled(0);
  am.OnTaskKilled(0);
  am.OnTasksScheduled(0, 2);
  am.OnTaskKilled(0);
  EXPECT_EQ(am.kills(), 3);
}

}  // namespace
}  // namespace harvest
