#include "src/trace/reimage.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/util/logging.h"

namespace harvest {

TenantReimageProcess::TenantReimageProcess(const ReimageModelParams& params, int num_servers,
                                           Rng& rng)
    : params_(params), num_servers_(num_servers) {
  HARVEST_CHECK(num_servers > 0) << "tenant must own at least one server";
  base_rate_ = std::min(params.max_rate, rng.LogNormal(params.rate_log_mean,
                                                       params.rate_log_stddev));
  // Pre-sample 48 months of AR(1) log offsets so RateForMonth is pure.
  double offset = 0.0;
  month_log_offsets_.reserve(48);
  for (int m = 0; m < 48; ++m) {
    offset += rng.Normal(0.0, params.drift_stddev) - params.drift_reversion * offset;
    month_log_offsets_.push_back(offset);
  }
}

double TenantReimageProcess::RateForMonth(int month) const {
  double offset = month_log_offsets_[static_cast<size_t>(month) % month_log_offsets_.size()];
  return std::min(params_.max_rate, base_rate_ * std::exp(offset));
}

std::vector<ReimageEvent> TenantReimageProcess::GenerateEvents(int months, Rng& rng) const {
  std::vector<ReimageEvent> events;
  for (int month = 0; month < months; ++month) {
    const double month_start = static_cast<double>(month) * kSecondsPerMonth;
    const double rate = RateForMonth(month);
    // Independent per-server Poisson reimages.
    for (int s = 0; s < num_servers_; ++s) {
      int64_t count = rng.Poisson(rate);
      for (int64_t i = 0; i < count; ++i) {
        events.push_back(ReimageEvent{month_start + rng.NextDouble() * kSecondsPerMonth, s,
                                      /*from_mass_event=*/false});
      }
    }
    // Correlated mass event (redeployment / repurposing).
    if (rng.Bernoulli(params_.mass_event_monthly_prob)) {
      double event_start = month_start + rng.NextDouble() * kSecondsPerMonth;
      for (int s = 0; s < num_servers_; ++s) {
        if (rng.Bernoulli(params_.mass_fraction)) {
          events.push_back(ReimageEvent{
              event_start + rng.NextDouble() * params_.mass_window_seconds, s,
              /*from_mass_event=*/true});
        }
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const ReimageEvent& a, const ReimageEvent& b) {
              if (a.time_seconds != b.time_seconds) {
                return a.time_seconds < b.time_seconds;
              }
              return a.server_index < b.server_index;
            });
  return events;
}

std::vector<ReimageGroup> SplitIntoGroups(const std::vector<double>& rates) {
  const size_t n = rates.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&rates](size_t a, size_t b) {
    if (rates[a] != rates[b]) {
      return rates[a] < rates[b];
    }
    return a < b;
  });
  std::vector<ReimageGroup> groups(n, ReimageGroup::kInfrequent);
  for (size_t pos = 0; pos < n; ++pos) {
    size_t tenant = order[pos];
    if (pos * 3 < n) {
      groups[tenant] = ReimageGroup::kInfrequent;
    } else if (pos * 3 < 2 * n) {
      groups[tenant] = ReimageGroup::kIntermediate;
    } else {
      groups[tenant] = ReimageGroup::kFrequent;
    }
  }
  return groups;
}

std::vector<int> CountGroupChanges(const std::vector<std::vector<double>>& monthly_rates) {
  if (monthly_rates.empty()) {
    return {};
  }
  const size_t tenants = monthly_rates.size();
  const size_t months = monthly_rates[0].size();
  std::vector<int> changes(tenants, 0);
  std::vector<ReimageGroup> previous;
  for (size_t month = 0; month < months; ++month) {
    std::vector<double> rates(tenants);
    for (size_t t = 0; t < tenants; ++t) {
      rates[t] = monthly_rates[t][month];
    }
    std::vector<ReimageGroup> current = SplitIntoGroups(rates);
    if (month > 0) {
      for (size_t t = 0; t < tenants; ++t) {
        if (current[t] != previous[t]) {
          ++changes[t];
        }
      }
    }
    previous = std::move(current);
  }
  return changes;
}

}  // namespace harvest
