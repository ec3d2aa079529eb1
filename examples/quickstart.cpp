// Quickstart: the smallest end-to-end use of the library's public API.
//
//   1. Build a testbed-style cluster of primary tenants (the paper's 102
//      servers, 21 DC-9 tenants).
//   2. Run the clustering service (FFT -> pattern split -> K-Means) to get
//      utilization classes.
//   3. Ask Algorithm 1 where a batch job should run.
//   4. Ask Algorithm 2 where a new block's replicas should live.
//
// Build & run:  ./build/examples/quickstart

#include <cstdint>
#include <cstdio>

#include "src/cluster/datacenter.h"
#include "src/core/class_selector.h"
#include "src/core/replica_placement.h"
#include "src/core/utilization_clustering.h"
#include "src/jobs/tpcds.h"
#include "src/scheduler/resource_manager.h"

int main() {
  using namespace harvest;
  Rng rng(42);

  // 1. A scaled-down fleet: 102 servers across 21 primary tenants.
  Cluster cluster = BuildTestbedCluster(102, kSlotsPerDay * 2, rng);
  std::printf("cluster: %zu servers, %zu primary tenants, avg primary util %.0f%%\n",
              cluster.num_servers(), cluster.num_tenants(),
              100.0 * cluster.AverageUtilization());

  // 2. Daily clustering service: utilization classes from history.
  UtilizationClusteringService service;
  ClusteringSnapshot snapshot = service.Run(cluster, rng);
  std::printf("\nutilization classes (%zu):\n", snapshot.classes.size());
  for (const auto& cls : snapshot.classes) {
    std::printf("  %-16s avg=%4.0f%% peak=%4.0f%% tenants=%zu cores=%d\n", cls.label.c_str(),
                100.0 * cls.average_utilization, 100.0 * cls.peak_utilization,
                cls.tenants.size(), cls.total_cores);
  }

  // 3. Algorithm 1: pick classes for a long batch job needing the max
  // concurrency of TPC-DS query 19 (469 containers).
  ResourceManager rm(&cluster, SchedulerMode::kHistory, kDefaultReserve);
  std::vector<int> server_class(cluster.num_servers(), 0);
  for (const auto& cls : snapshot.classes) {
    for (ServerId s : cls.servers) {
      server_class[static_cast<size_t>(s)] = cls.id;
    }
  }
  rm.SetServerClasses(std::move(server_class));

  JobDag q19 = BuildQuery19();
  std::vector<ClassState> states;
  for (const auto& cls : snapshot.classes) {
    states.push_back(ClassState{cls.id, rm.ClassCurrentUtilization(cls.id, 0.0),
                                rm.ClassAvailableCores(cls.id, 0.0)});
  }
  ClassSelector selector(&snapshot);
  ClassSelection selection = selector.Select(JobType::kLong, q19.MaxConcurrentCores(), states,
                                             rng);
  std::printf("\nAlgorithm 1 for %s (needs %d concurrent cores, long job):\n",
              q19.name().c_str(), q19.MaxConcurrentCores());
  if (selection.empty()) {
    std::printf("  no class fits right now; the job waits\n");
  } else {
    for (size_t i = 0; i < selection.class_ids.size(); ++i) {
      const auto& cls = snapshot.classes[static_cast<size_t>(selection.class_ids[i])];
      std::printf("  -> class %-16s (headroom %.0f%%)\n", cls.label.c_str(),
                  100.0 * selection.headrooms[i]);
    }
  }

  // 4. Algorithm 2: place three replicas of a new block.
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  ServerId writer = 7;
  const std::vector<uint8_t> every_server_open(cluster.num_servers(), 1);
  std::vector<ServerId> replicas =
      placer.Place(writer, 3, ServerSpaceFilter{every_server_open}, rng);
  std::printf("\nAlgorithm 2 for a block written on server %d:\n", writer);
  for (ServerId s : replicas) {
    auto [row, col] = grid.CellOfTenant(cluster.server(s).tenant);
    std::printf("  -> server %-4d tenant %-3d grid cell (%d,%d)  env %d\n", s,
                cluster.server(s).tenant, row, col,
                cluster.tenant(cluster.server(s).tenant).environment);
  }
  std::printf("\ndone; see examples/colocation_cluster.cpp for a full co-location run.\n");
  return 0;
}
