// Resource Manager (paper §5.1, §5.3): arbitrates cores and memory across the
// cluster. RM-H receives per-server heartbeats carrying primary-tenant usage,
// matches container requests against node labels (utilization classes), and
// balances load by choosing among eligible servers with probability
// proportional to their available resources.
//
// Scaling: the RM keeps *incremental* accounting so the co-simulation hot
// path is sublinear in fleet size. Per-node availability, the history
// forecast, and the placement weight are cached per telemetry slot (primary
// usage is piecewise-constant at kSlotSeconds granularity) and resynced on
// container add / remove / reserve kills; per-class availability is a running
// aggregate; and placement draws sample a Fenwick tree (O(log n)) instead of
// scanning a dense weight vector (O(n)). The cached path consumes the RNG
// identically to the historical dense scan -- same draws, same picks -- so
// simulation results are byte-identical (see src/util/weighted_picker.h for
// the exactness argument, and tests/rm_oracle_test.cc for the oracle that
// checks every cached quantity against a naive full rescan).
//
// Per-slot refresh: trace-dependent per-slot values (live primary cores,
// forecast cores) are computed once per telemetry group and broadcast, so
// slot work is O(groups + active servers) in the shared-trace fleets the
// paper models; EnforceReserves walks a bitmap of the active nodes, in
// ServerId order, instead of the whole fleet.
//
// Not thread-safe: one RM belongs to one simulation thread. Callers must
// not mutate NodeManagers behind the RM's back (use Allocate / Release /
// EnforceReserves), or the caches desynchronize.

#ifndef HARVEST_SRC_SCHEDULER_RESOURCE_MANAGER_H_
#define HARVEST_SRC_SCHEDULER_RESOURCE_MANAGER_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/fleet_table.h"
#include "src/scheduler/container.h"
#include "src/scheduler/node_manager.h"
#include "src/util/dense_id_set.h"
#include "src/util/rng.h"
#include "src/util/weighted_picker.h"

namespace harvest {

// RM-H forecast floor: jobs occupy their servers well beyond one task (stage
// chains, re-requests), and diurnal ramps move about one core per hour, so
// the forecast must look hours ahead to tell an ascending server from a
// descending one. Shared with Algorithm-1 class selection: a job's class pick
// discounts against the same history horizon its tasks will be placed under.
inline constexpr double kMinForecastWindowSeconds = 3.0 * 3600.0;

class ResourceManager {
 public:
  // Builds one NodeManager per server of `cluster`. The cluster must outlive
  // the RM.
  ResourceManager(const Cluster* cluster, SchedulerMode mode, Resources reserve);

  void SetServerClasses(std::vector<int> server_class);

  // Attempts to place up to `request.count` containers at time `t`. Returns
  // the placed containers (possibly fewer than requested). Placement is
  // probabilistic proportional to available cores across eligible servers.
  std::vector<Container> Allocate(const ContainerRequest& request, double t, Rng& rng);

  // Releases a container (task finished or AM cancelled it).
  void Release(const Container& container);

  // Heartbeat sweep: every NM with containers re-checks its reserve; returns
  // all containers killed this round. O(active servers): idle nodes have no
  // containers to kill and are not visited.
  std::vector<Container> EnforceReserves(double t);

  // Aggregate state of one utilization class, for Algorithm 1. `class_id`
  // must match SetServerClasses ids. Served from per-slot / running
  // aggregates; logically const, hence the mutable caches.
  double ClassCurrentUtilization(int class_id, double t) const;
  int ClassAvailableCores(int class_id, double t) const;
  int NumClasses() const { return num_classes_; }

  // The servers of one class, in the stable order candidate lists are built
  // in (exposed for the cache-oracle test).
  const std::vector<ServerId>& ClassServers(int class_id) const {
    return class_servers_[static_cast<size_t>(class_id)];
  }

  NodeManager& node(ServerId id) { return nodes_[static_cast<size_t>(id)]; }
  const NodeManager& node(ServerId id) const { return nodes_[static_cast<size_t>(id)]; }
  size_t num_nodes() const { return nodes_.size(); }

  // Cluster-wide average total (primary + secondary) utilization at `t`.
  double AverageTotalUtilization(double t) const;

  int64_t total_kills() const { return total_kills_; }

  // --- Dynamic right-sizing (src/power: park / unpark primary-idle servers)
  // A server parks when its primary tenant is provably idle: live
  // utilization AND the day-ago forecast-window peak both at or below
  // park_threshold (a fraction, so the decision is capacity-independent and
  // uniform across a telemetry group's shared trace), and the server hosts
  // no containers. A parked server's cached availability is {0, 0}: weight
  // 0 in every placement sampler, excluded from the class available-core
  // aggregates, invisible to reserve enforcement (parked implies idle).
  // Placement effect is immediate; the energy accountant charges parked
  // draw from the next slot boundary (see src/power/energy_accountant.h).
  struct RightSizingOptions {
    bool enabled = false;
    // Utilization fraction at or below which a primary counts as idle.
    double park_threshold = 0.05;
  };
  struct ParkingStats {
    int64_t park_events = 0;
    int64_t unpark_events = 0;
    // Unparks where the live primary had already breached the threshold:
    // demand arrived before the forecast predicted it.
    int64_t forced_unparks = 0;
  };

  // Enables (or reconfigures) right-sizing; resets all parking state.
  void ConfigureRightSizing(const RightSizingOptions& options);

  // Re-evaluates parkability per pooled trace at `t` and transitions
  // servers (in ServerId order): unparkable traces force their parked
  // servers back into service, parkable traces park their drained ones.
  // Call once per tick, after the tick's energy integration.
  void UpdateParking(double t);

  const ParkingStats& parking_stats() const { return parking_stats_; }
  int64_t parked_count() const { return parked_count_; }
  bool IsParked(ServerId s) const {
    return rightsizing_.enabled && parked_[static_cast<size_t>(s)] != 0;
  }

  // --- Fault injection (src/fault: correlated server loss, stale history) --
  // Marks a server down (power loss) or back up. A down server's cached
  // availability is {0, 0} -- weight 0 in every sampler, excluded from class
  // aggregates, never parked -- exactly the parked-server treatment, but
  // driven by the fault timeline instead of the parking policy. Going down
  // evicts everything the node hosts; the evicted containers are returned so
  // the caller can account the kills (they are NOT added to total_kills_
  // here -- fault evictions are reported separately). No-op (empty return)
  // when the state does not change.
  std::vector<Container> SetServerDown(ServerId s, bool is_down);
  bool IsDown(ServerId s) const {
    return !down_.empty() && down_[static_cast<size_t>(s)] != 0;
  }

  // Telemetry-blackout degradation: while degraded, the history placement
  // bonus is suppressed (H places on live availability instead of chasing a
  // missing day-ago window). Toggling invalidates the slot caches.
  void SetForecastDegraded(bool degraded);
  // Per-telemetry-group parked counts for the energy accountant's per-group
  // slot integration (empty until ConfigureRightSizing).
  const std::vector<int32_t>& group_parked() const { return group_parked_; }
  const FleetTable& fleet_table() const { return table_; }

  // Test hook: recomputes every cached quantity (per-node availability,
  // forecasts, weights, per-class aggregates, Fenwick totals, the active
  // set) by naive full rescan at the cached slot's timestamp and compares
  // exactly. Returns false and fills `error` on the first mismatch.
  bool AuditCachesForTest(std::string* error) const;

 private:
  // The weight function of one Allocate call: container shape, whether the
  // history bonus applies, and the forecast-window sample count it implies.
  // All requests of one co-simulation share a profile, so the weights and
  // Fenwick trees persist across calls and profile switches are rare.
  struct PlacementProfile {
    Resources shape{0, 0};
    bool history_aware = false;
    int forecast_samples = 0;      // 0 unless history_aware
    double window_seconds = 0.0;   // representative window for the samples
    bool valid = false;
  };

  static constexpr int64_t kNoSlot = std::numeric_limits<int64_t>::min();

  // Monotonic-deque sliding-window maximum over one utilization trace's
  // forecast window. Servers sharing a trace (per-tenant traces at DC scale)
  // share one window; the per-server forecast is the window peak put through
  // the shared rounding rule at that server's capacity.
  struct TraceWindow {
    const UtilizationTrace* trace = nullptr;
    // (slot, value), front = current maximum; values at the back are
    // strictly smaller than their predecessors.
    std::deque<std::pair<int64_t, double>> window;
    double peak = 0.0;
  };

  // Refreshes the per-slot caches (primary cores, forecasts, availability,
  // weights, class aggregates) when `t` falls in a different telemetry slot
  // than the cached one.
  void EnsureSlot(double t) const;
  // Rebuilds forecast + weight caches if `request` implies a different
  // weight profile than the cached one. Requires a fresh slot.
  void EnsureProfile(const ContainerRequest& request);
  // Recomputes every node's forecast for the cached profile (history mode).
  // Incremental: a slot-to-slot advance slides each trace's monotonic deque
  // (amortized O(1) per trace per slot) instead of rescanning the whole
  // O(window) sample set per server -- the ROADMAP-flagged H-mode refresh
  // fix. Exactly equivalent to the naive per-node scan by construction
  // (same integer slot walk; rm_oracle_test audits it).
  void RefreshForecasts() const;
  // Slides (or rebuilds) one trace window to [start_slot, start_slot+samples).
  // `prev_start_slot` is the window's previous start (a slide resumes
  // pushing after its end); ignored when rebuilding. `wrap` selects the
  // park windows' periodic day-ago indexing over the NM's clamped
  // convention (see the definition).
  void AdvanceTraceWindow(TraceWindow& window, int64_t start_slot, int samples,
                          bool rebuild, int64_t prev_start_slot, bool wrap) const;
  // Flips one server's parked bit and its group / total counters. The
  // caller must ResyncNode afterwards (all sites do).
  void ParkServer(ServerId s);
  void UnparkServer(ServerId s);
  // Park-on-drain hook (Release / reserve kills): a server going idle in a
  // currently-parkable group parks immediately.
  void MaybeParkOnDrain(ServerId s);
  // Recomputes per-node primary cores (once per telemetry group),
  // availability and (when a profile is cached) weights, then every
  // Fenwick tree and class aggregate.
  void RebuildAvailabilityAndWeights() const;
  // Placement weight of server `s` from its cached inputs and live
  // allocations. Zero when the profile's shape does not fit.
  int64_t NodeWeight(ServerId s) const;
  // Total weight of `request`'s candidate samplers (its valid labels, or
  // every server when it names none).
  int64_t CandidateTotal(const ContainerRequest& request) const;
  // Resyncs one node's cached availability / weight after its allocations
  // changed (container add / remove / reserve kill).
  void ResyncNode(ServerId s);
  // Parked or down: either way the server contributes {0, 0} availability
  // and weight 0 (the single predicate every cache site tests).
  bool IsUnavailable(ServerId s) const { return IsParked(s) || IsDown(s); }

  const Cluster* cluster_;
  SchedulerMode mode_;
  // SoA columns + trace pool + telemetry groups derived from the cluster.
  FleetTable table_;
  std::vector<NodeManager> nodes_;
  std::vector<int> server_class_;
  std::vector<std::vector<ServerId>> class_servers_;
  // Position of each server inside its class list (Fenwick index).
  std::vector<size_t> class_pos_;
  int num_classes_ = 0;
  ContainerId next_container_id_ = 1;
  int64_t total_kills_ = 0;
  // Exactly the non-idle servers: EnforceReserves visits these and only
  // these, in ascending ServerId (the dense sweep skipped idle nodes, so the
  // visit order -- and every emitted byte -- is unchanged).
  DenseIdSet active_;

  // --- Right-sizing state (all empty until ConfigureRightSizing) ----------
  RightSizingOptions rightsizing_;
  std::vector<uint8_t> parked_;          // per server
  std::vector<uint8_t> trace_parkable_;  // per pooled trace, as of last tick
  std::vector<int32_t> group_parked_;    // per telemetry group
  int64_t parked_count_ = 0;
  ParkingStats parking_stats_;
  // Park-decision forecast windows: a fixed kMinForecastWindowSeconds
  // day-ago window per pooled trace, independent of the placement profile's
  // window (which changes with the request mix).
  std::vector<TraceWindow> park_windows_;
  int64_t park_start_slot_ = kNoSlot;

  // --- Fault state (empty / false until the fault subsystem touches it) ----
  std::vector<uint8_t> down_;  // per server; lazily sized by SetServerDown
  int64_t down_count_ = 0;
  bool forecast_degraded_ = false;

  // --- Per-slot caches (mutable: const queries refresh them lazily) -------
  mutable int64_t cached_slot_ = kNoSlot;
  mutable double cache_time_ = 0.0;  // the timestamp the caches were built at
  PlacementProfile profile_;
  mutable std::vector<int> node_primary_cores_;
  mutable std::vector<int> node_forecast_cores_;
  // Forecast sliding windows: one per distinct utilization trace (the
  // FleetTable's pooled trace index), plus each server's pooled id.
  mutable std::vector<TraceWindow> trace_windows_;
  mutable int64_t forecast_start_slot_ = kNoSlot;
  mutable int forecast_samples_ = 0;
  mutable std::vector<Resources> node_avail_;
  mutable std::vector<int64_t> node_weight_;
  // Placement samplers: all servers in ServerId order (label-free requests)
  // and one per class in class-list order (labeled requests), rebuilt every
  // slot.
  mutable WeightedPicker all_servers_picker_;
  mutable std::vector<WeightedPicker> class_pickers_;
  // Running aggregate: sum of cached available cores per class.
  mutable std::vector<int64_t> class_avail_cores_;
  // Per-class mean primary utilization, computed once per slot on demand.
  mutable std::vector<int64_t> class_util_slot_;
  mutable std::vector<double> class_util_value_;
  // Per-slot rebuild scratch: one class's weight column in class-list
  // order, reused class after class.
  mutable std::vector<int64_t> class_col_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_SCHEDULER_RESOURCE_MANAGER_H_
