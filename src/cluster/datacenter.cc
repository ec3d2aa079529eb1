#include "src/cluster/datacenter.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/logging.h"

namespace harvest {

namespace {

DatacenterProfile MakeProfile(const std::string& name, double variation,
                              double reimage_log_mean, double mass_prob,
                              double periodic_fraction, double constant_fraction,
                              int num_tenants) {
  DatacenterProfile profile;
  profile.name = name;
  profile.variation = variation;
  profile.periodic_tenant_fraction = periodic_fraction;
  profile.constant_tenant_fraction = constant_fraction;
  profile.num_tenants = num_tenants;
  profile.reimage.rate_log_mean = reimage_log_mean;
  profile.reimage.mass_event_monthly_prob = mass_prob;
  return profile;
}

std::vector<DatacenterProfile> MakeAllProfiles() {
  std::vector<DatacenterProfile> profiles;
  profiles.reserve(kNumDatacenters);
  // name, variation, reimage log-mean, mass-event prob, periodic frac,
  // constant frac, tenants. Variation encodes the Fig 14 discussion: DC-0 and
  // DC-2 least temporal variation, DC-1 and DC-4 most. DC-1, DC-3, DC-8 carry
  // the substantially lower per-server reimage rates noted for Fig 4.
  profiles.push_back(MakeProfile("DC-0", 0.15, -1.9, 0.018, 0.10, 0.70, 140));
  profiles.push_back(MakeProfile("DC-1", 0.95, -2.6, 0.012, 0.14, 0.52, 120));
  profiles.push_back(MakeProfile("DC-2", 0.20, -1.8, 0.020, 0.09, 0.68, 160));
  profiles.push_back(MakeProfile("DC-3", 0.55, -2.5, 0.014, 0.12, 0.60, 110));
  profiles.push_back(MakeProfile("DC-4", 0.90, -1.9, 0.022, 0.15, 0.50, 130));
  profiles.push_back(MakeProfile("DC-5", 0.45, -1.8, 0.020, 0.11, 0.64, 150));
  profiles.push_back(MakeProfile("DC-6", 0.60, -2.0, 0.018, 0.13, 0.58, 120));
  profiles.push_back(MakeProfile("DC-7", 0.50, -1.7, 0.024, 0.10, 0.62, 140));
  profiles.push_back(MakeProfile("DC-8", 0.40, -2.6, 0.012, 0.12, 0.66, 130));
  profiles.push_back(MakeProfile("DC-9", 0.65, -1.9, 0.020, 0.13, 0.56, 125));
  return profiles;
}

// Log-uniform integer in [lo, hi].
int LogUniformInt(int lo, int hi, Rng& rng) {
  double log_lo = std::log(static_cast<double>(lo));
  double log_hi = std::log(static_cast<double>(hi));
  double v = std::exp(rng.Uniform(log_lo, log_hi));
  return std::clamp(static_cast<int>(std::lround(v)), lo, hi);
}

UtilizationTrace GenerateTenantTrace(const DatacenterProfile& profile,
                                     UtilizationPattern pattern, size_t slots, Rng& rng) {
  const double variation = profile.variation;
  switch (pattern) {
    case UtilizationPattern::kPeriodic: {
      PeriodicTraceParams params;
      params.base = std::clamp(profile.mean_periodic_base + rng.Normal(0.0, 0.07), 0.10, 0.65);
      params.daily_amplitude = std::clamp(0.08 + 0.22 * variation + rng.Normal(0.0, 0.03),
                                          0.06, 0.35);
      params.weekly_dip = 0.04 + 0.05 * variation;
      params.harmonic_amplitude = 0.02 + 0.05 * variation * rng.NextDouble();
      params.noise_stddev = 0.008 + 0.010 * variation;
      params.phase_fraction = rng.NextDouble();
      return GeneratePeriodicTrace(params, slots, rng);
    }
    case UtilizationPattern::kConstant: {
      ConstantTraceParams params;
      params.level = std::clamp(profile.mean_constant_level + rng.Normal(0.0, 0.08), 0.05, 0.70);
      params.noise_stddev = 0.005 + 0.006 * variation;
      params.drift_stddev = 0.0008 + 0.0012 * variation;
      return GenerateConstantTrace(params, slots, rng);
    }
    case UtilizationPattern::kUnpredictable: {
      UnpredictableTraceParams params;
      params.base = std::clamp(profile.mean_unpredictable_base + rng.Normal(0.0, 0.06),
                               0.05, 0.50);
      params.walk_stddev = 0.010 + 0.025 * variation;
      params.burst_rate_per_day = 0.5 + 2.0 * variation;
      params.burst_height = 0.25 + 0.35 * variation;
      params.burst_duration_slots = 20 + 60 * rng.NextDouble();
      params.noise_stddev = 0.008;
      return GenerateUnpredictableTrace(params, slots, rng);
    }
  }
  return UtilizationTrace();
}

}  // namespace

const std::vector<DatacenterProfile>& AllDatacenterProfiles() {
  static const std::vector<DatacenterProfile> profiles = MakeAllProfiles();
  return profiles;
}

const DatacenterProfile& DatacenterByName(const std::string& name) {
  for (const auto& profile : AllDatacenterProfiles()) {
    if (profile.name == name) {
      return profile;
    }
  }
  HARVEST_CHECK(false) << "unknown datacenter " << name;
  return AllDatacenterProfiles()[0];
}

Cluster BuildCluster(const DatacenterProfile& profile, const BuildOptions& options, Rng& rng) {
  Cluster cluster;
  const double tenants = profile.num_tenants * options.scale;
  HARVEST_CHECK(tenants < std::numeric_limits<int>::max() + 0.5)  // or the floor hides a wrap
      << profile.name << " at scale " << options.scale << " would have " << tenants << " tenants";
  const int num_tenants = std::max(3, static_cast<int>(std::lround(tenants)));

  std::vector<double> shape_weights;
  shape_weights.reserve(options.server_shapes.size());
  for (const ServerShape& shape : options.server_shapes) {
    shape_weights.push_back(shape.weight);
  }

  int next_rack = 0;
  for (int t = 0; t < num_tenants; ++t) {
    // Pattern assignment by tenant fraction (Fig 2).
    double coin = rng.NextDouble();
    UtilizationPattern pattern;
    if (coin < profile.periodic_tenant_fraction) {
      pattern = UtilizationPattern::kPeriodic;
    } else if (coin < profile.periodic_tenant_fraction + profile.constant_tenant_fraction) {
      pattern = UtilizationPattern::kConstant;
    } else {
      pattern = UtilizationPattern::kUnpredictable;
    }

    int servers = LogUniformInt(profile.min_servers_per_tenant,
                                profile.max_servers_per_tenant, rng);
    if (pattern == UtilizationPattern::kPeriodic) {
      // User-facing fleets are bigger (Fig 3: periodic ~40% of servers).
      servers = std::min(profile.max_servers_per_tenant * 4,
                         static_cast<int>(std::lround(servers * profile.periodic_size_boost)));
    }

    PrimaryTenant tenant;
    tenant.environment = t;  // one environment per tenant at this granularity
    tenant.name = profile.name + "/tenant-" + std::to_string(t);
    tenant.true_pattern = pattern;
    tenant.average_utilization = GenerateTenantTrace(profile, pattern, options.trace_slots, rng);

    TenantReimageProcess reimage_process(profile.reimage, servers, rng);
    tenant.reimage_rate = reimage_process.base_rate();
    std::vector<ReimageEvent> events = reimage_process.GenerateEvents(options.reimage_months, rng);

    TenantId tenant_id = cluster.AddTenant(std::move(tenant));

    auto shared_trace =
        std::make_shared<const UtilizationTrace>(cluster.tenant(tenant_id).average_utilization);
    for (int s = 0; s < servers; ++s) {
      Server server;
      server.tenant = tenant_id;
      // Tenants occupy contiguous racks (the durability-relevant correlation).
      server.rack = next_rack + s / profile.servers_per_rack;
      if (shape_weights.empty()) {
        server.capacity = kDefaultServerCapacity;
      } else {
        int shape = rng.WeightedIndex(shape_weights);
        HARVEST_CHECK(shape >= 0) << "server_shapes needs at least one positive weight";
        server.capacity = options.server_shapes[static_cast<size_t>(shape)].capacity;
      }
      if (options.per_server_traces) {
        server.utilization = std::make_shared<const UtilizationTrace>(PerturbTrace(
            cluster.tenant(tenant_id).average_utilization, profile.server_jitter, rng));
      } else {
        server.utilization = shared_trace;
      }
      server.harvestable_blocks =
          rng.UniformInt(profile.min_blocks_per_server, profile.max_blocks_per_server);
      cluster.AddServer(std::move(server));
    }
    cluster.SetTenantReimageEvents(tenant_id, events);
    next_rack += (servers + profile.servers_per_rack - 1) / profile.servers_per_rack;
  }
  return cluster;
}

Cluster BuildTestbedCluster(int num_servers, size_t trace_slots, Rng& rng) {
  // Paper §6.1: 21 primary tenants from DC-9 -- 13 periodic, 3 constant,
  // 5 unpredictable -- reproduced over `num_servers` servers.
  const DatacenterProfile& dc9 = DatacenterByName("DC-9");
  Cluster cluster;
  struct Spec {
    UtilizationPattern pattern;
    int count;
  };
  const std::vector<Spec> mix = {{UtilizationPattern::kPeriodic, 13},
                                 {UtilizationPattern::kConstant, 3},
                                 {UtilizationPattern::kUnpredictable, 5}};
  int total_tenants = 0;
  for (const auto& spec : mix) {
    total_tenants += spec.count;
  }
  const int base_servers = num_servers / total_tenants;
  int extra = num_servers % total_tenants;

  int rack = 0;
  for (const auto& spec : mix) {
    for (int i = 0; i < spec.count; ++i) {
      PrimaryTenant tenant;
      tenant.environment = static_cast<EnvironmentId>(cluster.num_tenants());
      tenant.name = "testbed/" + std::string(PatternName(spec.pattern)) + "-" + std::to_string(i);
      tenant.true_pattern = spec.pattern;
      tenant.average_utilization = GenerateTenantTrace(dc9, spec.pattern, trace_slots, rng);
      TenantReimageProcess reimage_process(dc9.reimage, base_servers + 1, rng);
      tenant.reimage_rate = reimage_process.base_rate();
      TenantId tenant_id = cluster.AddTenant(std::move(tenant));

      int servers = base_servers + (extra > 0 ? 1 : 0);
      if (extra > 0) {
        --extra;
      }
      for (int s = 0; s < servers; ++s) {
        Server server;
        server.tenant = tenant_id;
        server.rack = rack + s / 10;
        server.capacity = kDefaultServerCapacity;
        server.utilization = std::make_shared<const UtilizationTrace>(PerturbTrace(
            cluster.tenant(tenant_id).average_utilization, dc9.server_jitter, rng));
        server.harvestable_blocks = rng.UniformInt(300, 800);
        cluster.AddServer(std::move(server));
      }
      rack += (servers + 9) / 10;
    }
  }
  return cluster;
}

}  // namespace harvest
