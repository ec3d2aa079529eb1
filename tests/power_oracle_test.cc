// Oracle for the power subsystem's deterministic accounting:
//
//   * EnergyAccountant vs dense reintegration: a randomized sequence of
//     park / unpark toggles, container starts / ends, and slot
//     integrations is mirrored into a naive per-server oracle that redoes
//     every integral with the dense int64 milliwatt sum. The two ledgers
//     must agree EXACTLY: the accountant's per-group integer sum equals
//     the per-server one, and both accumulate doubles in the same order.
//
//   * ResourceManager right-sizing vs the cache audit: randomized
//     Allocate / Release / EnforceReserves / UpdateParking sequences with
//     AuditCachesForTest after every operation, parked-count invariants,
//     and the guarantee that a parked server never receives a placement,
//     on a per-server-trace and a shared-trace fleet, where whole
//     multi-server telemetry groups park and unpark together.
//
//   * The full co-simulation with power accounting, right-sizing, and
//     wave deferral enabled must produce an energy ledger and exercise
//     every policy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/cluster/fleet_table.h"
#include "src/experiments/scheduling_sim.h"
#include "src/jobs/tpcds.h"
#include "src/power/energy_accountant.h"
#include "src/power/power_model.h"
#include "src/power/price_curve.h"
#include "src/scheduler/node_manager.h"
#include "src/scheduler/resource_manager.h"
#include "src/util/rng.h"

namespace harvest {
namespace {

constexpr int kAccountantOps = 600;
constexpr int kParkingOps = 1200;

PriceCurve DiurnalPrice() {
  PriceCurve price;
  std::string error;
  EXPECT_TRUE(PriceCurve::Parse("diurnal:0.08,0.05,18", &price, &error)) << error;
  price.ShiftPhase(5.0 * 3600.0);  // off-grid phase: exercise the shifted integral
  return price;
}

TEST(PriceCurveTest, ParsesBothKindsAndRejectsMalformedText) {
  for (const char* text : {"flat:0.12", "diurnal:0.08,0.05,18"}) {
    PriceCurve curve;
    std::string error;
    ASSERT_TRUE(PriceCurve::Parse(text, &curve, &error)) << text << ": " << error;
    EXPECT_EQ(curve.ToString(), text);
  }
  const char* bad[] = {
      "hourly:0.1",              // unknown kind
      "flat:",                   // no price
      "flat:0",                  // price not positive
      "flat:1e-320",             // subnormal underflow
      "diurnal:0.05,0.08,18",    // amplitude above the base
      "diurnal:0.08,0.05,24",    // peak hour outside [0, 24)
      "diurnal:0.08,0.05",       // two fields
      "diurnal:0.08,0.05,18,3",  // four fields
      "diurnal:0.08,0.05,18,",   // trailing comma
  };
  for (const char* text : bad) {
    PriceCurve curve;
    std::string error;
    EXPECT_FALSE(PriceCurve::Parse(text, &curve, &error)) << text;
    EXPECT_NE(error.find("energy_price"), std::string::npos) << text << ": " << error;
    EXPECT_EQ(curve.ToString(), "flat:0.1") << text << " must leave the curve untouched";
  }
  PriceCurve curve;
  std::string error;
  EXPECT_FALSE(PriceCurve::Parse("flat:1e-320", &curve, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

// The dense reference ledger: per-server reintegration of the same op
// sequence, accumulating in the same expression order as the accountant so
// equality is exact, not approximate.
struct DenseOracle {
  const FleetTable* table;
  PowerModel model;
  PriceCurve price;
  double cap_watts;
  std::vector<uint8_t> parked;  // per server
  int64_t secondary_mw = 0;
  EnergyTotals totals;
  double last_watts = 0.0;

  DenseOracle(const FleetTable* t, PriceCurve p, double cap)
      : table(t), price(p), cap_watts(cap), parked(t->num_servers(), 0) {}

  int64_t FleetMilliwatts(double t) const {
    int64_t mw = 0;
    for (size_t s = 0; s < table->num_servers(); ++s) {
      const int capacity = table->capacity_cores()[s];
      if (parked[s] != 0) {
        mw += model.ParkedMilliwatts(capacity);
        continue;
      }
      const int32_t trace = table->trace_index()[s];
      const int primary =
          trace < 0 ? 0
                    : NodeManager::ForecastCoresFromPeak(table->trace(trace)->AtTime(t),
                                                         capacity);
      mw += model.IdleMilliwatts(capacity) +
            model.active_per_core_mw * static_cast<int64_t>(primary);
    }
    return mw;
  }

  void IntegrateSlot(double t0, double t1) {
    const double dt = t1 - t0;
    const int64_t fleet_mw = FleetMilliwatts(t0);
    const double fleet_watts = static_cast<double>(fleet_mw) / 1000.0;
    totals.fleet_joules += fleet_watts * dt;
    totals.cost_dollars += price.CostDollars(fleet_watts, t0, t1);
    int64_t parked_total = 0;
    for (uint8_t p : parked) {
      parked_total += p;
    }
    totals.parked_server_seconds += static_cast<double>(parked_total) * dt;
    const double watts = fleet_watts + static_cast<double>(secondary_mw) / 1000.0;
    last_watts = watts;
    totals.peak_power_watts = std::max(totals.peak_power_watts, watts);
    if (cap_watts > 0.0 && watts > cap_watts) {
      ++totals.slots_over_cap;
    }
  }

  void OnContainerStart(int cores) {
    secondary_mw += model.active_per_core_mw * static_cast<int64_t>(cores);
  }

  void OnContainerEnd(int cores, double start, double end) {
    secondary_mw -= model.active_per_core_mw * static_cast<int64_t>(cores);
    const double watts =
        static_cast<double>(model.active_per_core_mw * static_cast<int64_t>(cores)) / 1000.0;
    totals.container_joules += watts * (end - start);
    totals.cost_dollars += price.CostDollars(watts, start, end);
  }
};

void ExpectLedgersEqual(const EnergyTotals& got, const EnergyTotals& want,
                        const std::string& label) {
  // Exact equality on purpose: the dense oracle mirrors the accountant's
  // accumulation order term for term, and the per-slot sums are integers.
  EXPECT_EQ(got.fleet_joules, want.fleet_joules) << label;
  EXPECT_EQ(got.container_joules, want.container_joules) << label;
  EXPECT_EQ(got.cost_dollars, want.cost_dollars) << label;
  EXPECT_EQ(got.peak_power_watts, want.peak_power_watts) << label;
  EXPECT_EQ(got.slots_over_cap, want.slots_over_cap) << label;
  EXPECT_EQ(got.parked_server_seconds, want.parked_server_seconds) << label;
}

// Randomized park / container / integration sequence, mirrored into the
// dense oracle and into the accountant.
TEST(PowerOracleTest, AccountantMatchesDenseReintegration) {
  Rng build_rng(11);
  Cluster cluster = BuildTestbedCluster(48, kSlotsPerDay, build_rng);
  FleetTable table(cluster);
  const PriceCurve price = DiurnalPrice();
  // Low enough that busy intervals trip it (the 48-server testbed idles
  // around 4.3 kW), high enough that it is not a constant.
  const double cap_watts = 5200.0;

  EnergyAccountant accountant(&table, PowerModel{}, price, cap_watts);
  DenseOracle dense(&table, price, cap_watts);

  // Parked counts as the accountant consumes them: per telemetry group.
  std::vector<int32_t> group_parked(static_cast<size_t>(table.num_groups()), 0);

  struct LiveContainer {
    int cores;
    double start;
  };
  std::vector<LiveContainer> live;
  Rng op_rng(11 ^ 0x9e3779b9ULL);
  double t = 0.0;
  int64_t park_toggles = 0;
  int64_t containers_ended = 0;

  for (int op = 0; op < kAccountantOps; ++op) {
    // Integrate up to the new time first: park toggles below take power
    // effect at the NEXT integration, the accountant's documented
    // convention.
    const double t1 = t + op_rng.Uniform(30.0, 300.0);
    ASSERT_EQ(accountant.FleetMilliwatts(t, &group_parked), dense.FleetMilliwatts(t))
        << "op " << op;
    accountant.IntegrateSlot(t, t1, &group_parked);
    dense.IntegrateSlot(t, t1);
    ASSERT_EQ(accountant.last_power_watts(), dense.last_watts) << "op " << op;
    t = t1;

    const uint64_t kind = op_rng.NextBounded(10);
    if (kind < 3) {
      const size_t s = static_cast<size_t>(op_rng.NextBounded(table.num_servers()));
      const int32_t g = table.group()[s];
      if (dense.parked[s] != 0) {
        dense.parked[s] = 0;
        --group_parked[static_cast<size_t>(g)];
      } else {
        dense.parked[s] = 1;
        ++group_parked[static_cast<size_t>(g)];
      }
      ++park_toggles;
    } else if (kind < 7 || live.empty()) {
      const int cores = static_cast<int>(op_rng.UniformInt(1, 4));
      accountant.OnContainerStart(cores);
      dense.OnContainerStart(cores);
      live.push_back({cores, t});
    } else {
      const size_t idx = static_cast<size_t>(op_rng.NextBounded(live.size()));
      const LiveContainer ending = live[idx];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      accountant.OnContainerEnd(ending.cores, ending.start, t);
      dense.OnContainerEnd(ending.cores, ending.start, t);
      ++containers_ended;
    }
  }
  // Drain the stragglers so the container integrals are complete.
  for (const LiveContainer& ending : live) {
    accountant.OnContainerEnd(ending.cores, ending.start, t);
    dense.OnContainerEnd(ending.cores, ending.start, t);
  }

  ExpectLedgersEqual(accountant.totals(), dense.totals, "accountant");
  // The mix actually exercised every branch.
  EXPECT_GT(park_toggles, 50);
  EXPECT_GT(containers_ended, 50);
  EXPECT_GT(dense.totals.slots_over_cap, 0);
  EXPECT_LT(dense.totals.slots_over_cap, kAccountantOps);
  EXPECT_GT(dense.totals.parked_server_seconds, 0.0);
}

// The testbed's per-server traces make every telemetry group one server;
// the DC-scale fleet shares one trace per tenant, so whole multi-server
// groups park together.
Cluster BuildParkingFleet(bool shared_traces, uint64_t seed) {
  Rng build_rng(seed);
  if (!shared_traces) {
    return BuildTestbedCluster(48, kSlotsPerDay, build_rng);
  }
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 1;
  options.scale = 0.05;
  options.per_server_traces = false;
  return BuildCluster(DatacenterByName("DC-9"), options, build_rng);
}

// Returns the parking stats of a randomized run audited after every
// operation.
ResourceManager::ParkingStats RunParkingOracle(const Cluster& cluster, uint64_t seed) {
  ResourceManager rm(&cluster, SchedulerMode::kHistory, kDefaultReserve);
  std::vector<int> classes(cluster.num_servers());
  for (size_t s = 0; s < classes.size(); ++s) {
    classes[s] = static_cast<int>(s % 4);
  }
  rm.SetServerClasses(std::move(classes));
  ResourceManager::RightSizingOptions rightsizing;
  rightsizing.enabled = true;
  // Generous threshold: the testbed mixes stable / diurnal / bursty
  // tenants, and the point here is lots of transitions, not realism.
  rightsizing.park_threshold = 0.55;
  rm.ConfigureRightSizing(rightsizing);

  Rng op_rng(seed ^ 0x0badc0ffeeULL);
  Rng rng(seed ^ 0x5eedULL);
  std::vector<Container> live;
  double t = 0.0;

  for (int op = 0; op < kParkingOps; ++op) {
    t += op_rng.Uniform(0.0, 250.0);
    const uint64_t kind = op_rng.NextBounded(10);
    if (kind < 4 || live.empty()) {
      ContainerRequest request;
      request.job = op;
      request.count = static_cast<int>(op_rng.UniformInt(1, 8));
      request.resources = op_rng.Bernoulli(0.8) ? Resources{1, 2048} : Resources{2, 4096};
      request.task_seconds = op_rng.Uniform(20.0, 300.0);
      request.history_aware = true;
      std::vector<Container> placed = rm.Allocate(request, t, rng);
      for (const Container& container : placed) {
        // A parked server has zero cached availability; the samplers must
        // never pick one.
        EXPECT_FALSE(rm.IsParked(container.server)) << "op " << op;
      }
      live.insert(live.end(), placed.begin(), placed.end());
    } else if (kind < 7) {
      const size_t idx = static_cast<size_t>(op_rng.NextBounded(live.size()));
      rm.Release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (kind < 9) {
      rm.UpdateParking(t);
    } else {
      std::vector<Container> killed = rm.EnforceReserves(t);
      for (const Container& container : killed) {
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [&container](const Container& c) {
                                    return c.id == container.id;
                                  }),
                   live.end());
      }
    }

    std::string error;
    EXPECT_TRUE(rm.AuditCachesForTest(&error)) << "op " << op << ": " << error;
    // Parked-count invariants: the scalar, the per-group counts, and the
    // per-server bits always agree.
    int64_t by_group = 0;
    for (int32_t count : rm.group_parked()) {
      by_group += count;
    }
    int64_t by_server = 0;
    for (ServerId s = 0; s < static_cast<ServerId>(rm.num_nodes()); ++s) {
      by_server += rm.IsParked(s) ? 1 : 0;
    }
    EXPECT_EQ(rm.parked_count(), by_group) << "op " << op;
    EXPECT_EQ(rm.parked_count(), by_server) << "op " << op;
  }
  return rm.parking_stats();
}

TEST(PowerOracleTest, RandomizedParkingKeepsRmCachesExact) {
  for (bool shared_traces : {false, true}) {
    SCOPED_TRACE(shared_traces ? "shared traces" : "testbed");
    const Cluster cluster = BuildParkingFleet(shared_traces, 404);
    const ResourceManager::ParkingStats stats = RunParkingOracle(cluster, 404);
    // The calmer tenants must actually park and transition back; a zero
    // here means the windows or thresholds went dead.
    EXPECT_GT(stats.park_events, 0);
    EXPECT_GT(stats.unpark_events, 0);
  }
}

// Full co-simulation with every power policy on: the ledger fills and the
// policies fire. (Whole runs are held byte-identical across --threads by
// the golden checks, the power presets included.)
TEST(PowerOracleTest, SimulationAccountsEnergyAndExercisesPolicies) {
  Rng build_rng(5);
  Cluster cluster = BuildTestbedCluster(42, kSlotsPerDay, build_rng);
  auto full = BuildTpcDsSuite(3);
  std::vector<JobDag> suite = {full[0], full[1], full[3], full[4], full[6]};

  SchedulingSimOptions options;
  options.mode = SchedulerMode::kHistory;
  options.horizon_seconds = 4.0 * 3600.0;
  options.mean_interarrival_seconds = 240.0;
  options.seed = 9;
  options.power_accounting = true;
  ASSERT_TRUE(PriceCurve::Parse("diurnal:0.08,0.05,18", &options.energy_price, nullptr));
  options.dc_index = 1;
  options.price_phase_hours = 8.0;
  options.rightsizing = true;
  options.park_threshold = 0.45;
  options.defer_waves = true;
  options.defer_window_hours = 4.0;
  options.defer_min_gain = 0.01;
  options.power_cap_watts = 4500.0;

  const SchedulingSimResult result = RunSchedulingSimulation(cluster, suite, options);
  ASSERT_TRUE(result.has_energy);
  EXPECT_GT(result.energy.fleet_joules, 0.0);
  // The run exercised the policies, not just the ledger: the 4.5 kW cap
  // sits below the testbed's busy draw, so cap-forced deferral must fire.
  EXPECT_GT(result.energy.deferred_jobs, 0);
  EXPECT_GT(result.energy.slots_over_cap, 0);
}

}  // namespace
}  // namespace harvest
