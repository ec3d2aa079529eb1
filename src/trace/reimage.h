// Disk-reimaging model (paper §3.3). AutoPilot reimages disks when services
// are redeployed, for resilience testing, and after maintenance; reimaging
// destroys all secondary-tenant replicas on the disk. The model reproduces
// the published statistics:
//   * diverse per-tenant average rates (Fig 5 is not a vertical line);
//   * >= 90% of servers and >= 80% of tenants at <= 1 reimage/month (Figs 4-5);
//   * month-to-month rate drift that preserves relative rank, so >= 80% of
//     tenants change frequency tertile <= 8 times in 35 transitions (Fig 6);
//   * correlated mass events (redeployments) hitting many servers of one
//     tenant within a short window -- the durability threat of §4.2.

#ifndef HARVEST_SRC_TRACE_REIMAGE_H_
#define HARVEST_SRC_TRACE_REIMAGE_H_

#include <cstdint>
#include <vector>

#include "src/util/rng.h"

namespace harvest {

inline constexpr double kSecondsPerMonth = 30.0 * 24.0 * 3600.0;

// Distribution parameters for one datacenter's reimaging behavior.
struct ReimageModelParams {
  // Per-tenant long-run rate (reimages per server per month) is sampled from
  // LogNormal(mu, sigma). Defaults put ~85% of tenants below 1/month.
  double rate_log_mean = -1.9;
  double rate_log_stddev = 1.1;
  // Month-to-month drift of a tenant's log-rate: AR(1) with this innovation
  // stddev and reversion toward the tenant's long-run log-rate. Small values
  // keep rank order stable (Fig 6).
  double drift_stddev = 0.15;
  double drift_reversion = 0.25;
  // Monthly probability that a tenant suffers a mass event (redeployment)
  // reimaging `mass_fraction` of its servers within `mass_window_seconds`.
  double mass_event_monthly_prob = 0.020;
  double mass_fraction = 0.75;
  double mass_window_seconds = 1800.0;
  // Cap on sampled per-tenant rates, reimages/server/month.
  double max_rate = 6.0;
};

// A single reimage event: server `server_index` (within the tenant) wiped at
// `time_seconds` from the start of the horizon.
struct ReimageEvent {
  double time_seconds = 0.0;
  int server_index = 0;
  bool from_mass_event = false;
};

// Per-tenant reimaging process.
class TenantReimageProcess {
 public:
  // Samples the tenant's long-run rate from the datacenter distribution.
  TenantReimageProcess(const ReimageModelParams& params, int num_servers, Rng& rng);

  // Long-run average rate, reimages per server per month.
  double base_rate() const { return base_rate_; }

  // Effective rate during month `month` (drifts around the base rate).
  double RateForMonth(int month) const;

  // Generates all events over `months` months. Events are sorted by time.
  std::vector<ReimageEvent> GenerateEvents(int months, Rng& rng) const;

 private:
  ReimageModelParams params_;
  int num_servers_;
  double base_rate_;
  // Pre-sampled AR(1) multipliers per month (in log space), extended lazily.
  std::vector<double> month_log_offsets_;
};

// Tertile group labels used by Fig 6 and by the placement grid.
enum class ReimageGroup { kInfrequent = 0, kIntermediate = 1, kFrequent = 2 };

// Splits tenants into three equal-count groups by rate; returns each tenant's
// group, ordering ties deterministically by index.
std::vector<ReimageGroup> SplitIntoGroups(const std::vector<double>& rates);

// Counts, for each tenant, how many month-to-month transitions changed its
// group, given per-month rates [tenant][month].
std::vector<int> CountGroupChanges(const std::vector<std::vector<double>>& monthly_rates);

}  // namespace harvest

#endif  // HARVEST_SRC_TRACE_REIMAGE_H_
