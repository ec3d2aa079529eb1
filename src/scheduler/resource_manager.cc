#include "src/scheduler/resource_manager.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace harvest {
namespace {

// YARN-H weighting (paper G3 + §5.3): history decides *eligibility* -- does
// the forecast say this task's shape will survive on this server? -- and
// load then balances across eligible servers in proportion to their live
// available resources, exactly like the PT baseline does across all servers.
// Eligible servers get their live room boosted by this factor; ineligible
// ones stay usable at plain live room, so saturation does not flatten
// placement. The bonus is deliberately NOT proportional to the forecast
// room itself: scaling by forecast room concentrated load onto whichever
// servers happened to have a deceptively calm day-ago window, and on fleets
// where the forecast carries no signal (flat primaries + i.i.d. per-server
// jitter) that noise-chasing packed containers onto a few servers and made
// YARN-H suffer *more* reserve kills than PT (the fleet_sweep 45%-target
// regression). Integer on purpose: keeping every weight integer-valued is
// what makes the Fenwick sampler's arithmetic exact
// (src/util/weighted_picker.h).
constexpr int64_t kTypeRoomBonus = 50;

}  // namespace

ResourceManager::ResourceManager(const Cluster* cluster, SchedulerMode mode, Resources reserve)
    : cluster_(cluster), mode_(mode), table_(*cluster) {
  nodes_.reserve(cluster->num_servers());
  for (const auto& server : cluster->servers()) {
    nodes_.emplace_back(&server, reserve, mode);
  }
  // One sliding window per distinct utilization trace: the FleetTable pools
  // shared traces (per-tenant traces at DC scale) to first-appearance ids.
  trace_windows_.resize(static_cast<size_t>(table_.num_traces()));
  for (int w = 0; w < table_.num_traces(); ++w) {
    trace_windows_[static_cast<size_t>(w)].trace = table_.trace(w);
  }
  std::vector<int> server_class(cluster->num_servers(), 0);
  SetServerClasses(std::move(server_class));
}

void ResourceManager::SetServerClasses(std::vector<int> server_class) {
  HARVEST_CHECK(server_class.size() == nodes_.size())
      << "class map must cover every server";
  server_class_ = std::move(server_class);
  num_classes_ = 0;
  for (int c : server_class_) {
    num_classes_ = std::max(num_classes_, c + 1);
  }
  class_servers_.assign(static_cast<size_t>(num_classes_), {});
  class_pos_.assign(nodes_.size(), 0);
  for (ServerId s = 0; s < static_cast<ServerId>(server_class_.size()); ++s) {
    int c = server_class_[static_cast<size_t>(s)];
    if (c >= 0) {
      class_pos_[static_cast<size_t>(s)] = class_servers_[static_cast<size_t>(c)].size();
      class_servers_[static_cast<size_t>(c)].push_back(s);
    }
  }
  node_primary_cores_.assign(nodes_.size(), 0);
  node_forecast_cores_.assign(nodes_.size(), 0);
  node_avail_.assign(nodes_.size(), Resources{0, 0});
  node_weight_.assign(nodes_.size(), 0);
  class_pickers_.assign(static_cast<size_t>(num_classes_), WeightedPicker());
  class_avail_cores_.assign(static_cast<size_t>(num_classes_), 0);
  class_util_slot_.assign(static_cast<size_t>(num_classes_), kNoSlot);
  class_util_value_.assign(static_cast<size_t>(num_classes_), 1.0);
  cached_slot_ = kNoSlot;       // force a full rebuild on next use
  forecast_start_slot_ = kNoSlot;  // including the forecast windows
  forecast_samples_ = 0;
}

void ResourceManager::EnsureSlot(double t) const {
  int64_t slot = static_cast<int64_t>(std::floor(t / kSlotSeconds));
  if (slot == cached_slot_) {
    return;
  }
  cached_slot_ = slot;
  cache_time_ = t;
  if (profile_.valid && profile_.history_aware) {
    RefreshForecasts();
  }
  RebuildAvailabilityAndWeights();
}

void ResourceManager::AdvanceTraceWindow(TraceWindow& window, int64_t start_slot, int samples,
                                         bool rebuild, int64_t prev_start_slot,
                                         bool wrap) const {
  const int64_t end_slot = start_slot + samples;  // exclusive
  int64_t push_from = start_slot;
  if (rebuild) {
    window.window.clear();
  } else {
    // Slide: drop samples that left the window, append the ones that
    // entered. The previous window was [prev_start_slot,
    // prev_start_slot + samples), so pushing resumes after its end.
    push_from = std::max(start_slot, prev_start_slot + samples);
    while (!window.window.empty() && window.window.front().first < start_slot) {
      window.window.pop_front();
    }
  }
  const int64_t period = static_cast<int64_t>(window.trace->size());
  for (int64_t slot = push_from; slot < end_slot; ++slot) {
    // Placement forecasts clamp negative (pre-history) slots to the trace
    // start (the NM convention). The park windows wrap instead: in the
    // first simulated day a negative day-ago index reads the same time of
    // day one trace period later, the honest answer for the periodic
    // telemetry parking keys on -- a clamped window would report a
    // constant early peak and let servers park right before yesterday's
    // ramp-up, churning park / forced-unpark every few slots.
    const double value =
        wrap ? window.trace->AtSlot(static_cast<size_t>(((slot % period) + period) % period))
             : NodeManager::ForecastSampleAt(*window.trace, slot);
    while (!window.window.empty() && window.window.back().second <= value) {
      window.window.pop_back();
    }
    window.window.emplace_back(slot, value);
  }
  window.peak = window.window.empty() ? 0.0 : window.window.front().second;
}

void ResourceManager::RefreshForecasts() const {
  const int64_t start_slot = NodeManager::ForecastStartSlot(cache_time_);
  const int samples = profile_.forecast_samples;
  if (start_slot == forecast_start_slot_ && samples == forecast_samples_) {
    return;  // same window -> same forecasts (pure function of slot+samples)
  }
  // A window-size change, a backward jump, or a jump past the whole window
  // rebuilds from scratch (one naive-cost pass); the common slot-to-slot
  // advance slides each deque in amortized O(1) per trace.
  const bool rebuild = samples != forecast_samples_ || forecast_start_slot_ == kNoSlot ||
                       start_slot < forecast_start_slot_ ||
                       start_slot - forecast_start_slot_ >= samples;
  for (TraceWindow& window : trace_windows_) {
    AdvanceTraceWindow(window, start_slot, samples, rebuild, forecast_start_slot_,
                       /*wrap=*/false);
  }
  forecast_start_slot_ = start_slot;
  forecast_samples_ = samples;
  // Broadcast window peaks to per-server forecast cores, once per telemetry
  // group (the rounded forecast depends only on the trace and the capacity,
  // both group-constant).
  for (int g = 0; g < table_.num_groups(); ++g) {
    const size_t begin = table_.group_begin(g);
    const int trace = table_.trace_index()[begin];
    const int cores =
        trace < 0 ? 0
                  : NodeManager::ForecastCoresFromPeak(
                        trace_windows_[static_cast<size_t>(trace)].peak,
                        table_.capacity_cores()[begin]);
    for (size_t s = begin; s < table_.group_end(g); ++s) {
      node_forecast_cores_[s] = cores;
    }
  }
}

int64_t ResourceManager::NodeWeight(ServerId s) const {
  const size_t i = static_cast<size_t>(s);
  const Resources& avail = node_avail_[i];
  if (!avail.Fits(profile_.shape)) {
    return 0;
  }
  int64_t weight = avail.cores;
  // Telemetry blackout: the day-ago window behind the forecast is missing,
  // so the eligibility bonus is suppressed and H degrades to the PT-style
  // live-room balance instead of trusting stale history.
  if (profile_.history_aware && !forecast_degraded_ &&
      nodes_[i]
          .AvailableForTaskGiven(node_primary_cores_[i], node_forecast_cores_[i])
          .Fits(profile_.shape)) {
    weight += kTypeRoomBonus * avail.cores;
  }
  return weight;
}

void ResourceManager::RebuildAvailabilityAndWeights() const {
  // Live primary cores, once per telemetry group (pure function of the
  // trace and the capacity; identical to the per-server call).
  for (int g = 0; g < table_.num_groups(); ++g) {
    const size_t begin = table_.group_begin(g);
    const int cores = nodes_[begin].PrimaryCores(cache_time_);
    for (size_t s = begin; s < table_.group_end(g); ++s) {
      node_primary_cores_[s] = cores;
    }
  }
  for (size_t s = 0; s < nodes_.size(); ++s) {
    // A parked or down server reports no room at all: weight 0 in every
    // sampler (Resources{0,0} fits no shape) and nothing in the class
    // aggregates.
    node_avail_[s] = IsUnavailable(static_cast<ServerId>(s))
                         ? Resources{0, 0}
                         : nodes_[s].AvailableForSecondaryGiven(node_primary_cores_[s]);
    node_weight_[s] = profile_.valid ? NodeWeight(static_cast<ServerId>(s)) : 0;
  }
  all_servers_picker_.Build(node_weight_.data(), node_weight_.size());
  // Each class's sampler from its weights gathered in class-list order, and
  // its available-core sum (an exact integer sum).
  for (size_t c = 0; c < class_servers_.size(); ++c) {
    const std::vector<ServerId>& servers = class_servers_[c];
    class_col_.resize(servers.size());
    int64_t cores = 0;
    for (size_t pos = 0; pos < servers.size(); ++pos) {
      const size_t s = static_cast<size_t>(servers[pos]);
      class_col_[pos] = node_weight_[s];
      cores += node_avail_[s].cores;
    }
    class_avail_cores_[c] = cores;
    class_pickers_[c].Build(class_col_.data(), class_col_.size());
  }
}

void ResourceManager::EnsureProfile(const ContainerRequest& request) {
  const bool history = request.history_aware;
  const double window =
      history ? std::max(request.task_seconds, kMinForecastWindowSeconds) : 0.0;
  const int samples = history ? NodeManager::ForecastSampleCount(window) : 0;
  if (profile_.valid && profile_.shape == request.resources &&
      profile_.history_aware == history && profile_.forecast_samples == samples) {
    return;
  }
  profile_.shape = request.resources;
  profile_.history_aware = history;
  profile_.forecast_samples = samples;
  profile_.window_seconds = window;
  profile_.valid = true;
  if (history) {
    RefreshForecasts();
  }
  RebuildAvailabilityAndWeights();
}

void ResourceManager::ResyncNode(ServerId s) {
  if (cached_slot_ == kNoSlot) {
    return;  // nothing cached yet; the next EnsureSlot rebuilds everything
  }
  const size_t i = static_cast<size_t>(s);
  Resources avail = IsUnavailable(s)
                        ? Resources{0, 0}
                        : nodes_[i].AvailableForSecondaryGiven(node_primary_cores_[i]);
  int c = server_class_[i];
  if (c >= 0 && c < num_classes_) {
    class_avail_cores_[static_cast<size_t>(c)] += avail.cores - node_avail_[i].cores;
  }
  node_avail_[i] = avail;
  if (profile_.valid) {
    int64_t weight = NodeWeight(s);
    all_servers_picker_.Update(i, node_weight_[i], weight);
    if (c >= 0 && c < num_classes_) {
      class_pickers_[static_cast<size_t>(c)].Update(class_pos_[i], node_weight_[i], weight);
    }
    node_weight_[i] = weight;
  }
}

int64_t ResourceManager::CandidateTotal(const ContainerRequest& request) const {
  if (request.allowed_classes.empty()) {
    return all_servers_picker_.Total();
  }
  int64_t total = 0;
  for (int c : request.allowed_classes) {
    if (c >= 0 && c < num_classes_) {
      total += class_pickers_[static_cast<size_t>(c)].Total();
    }
  }
  return total;
}

std::vector<Container> ResourceManager::Allocate(const ContainerRequest& request, double t,
                                                 Rng& rng) {
  std::vector<Container> placed;
  if (request.count <= 0) {
    return placed;
  }
  EnsureSlot(t);
  EnsureProfile(request);
  if (CandidateTotal(request) <= 0) {
    return placed;  // nothing fits: the loop below would stop before its first draw
  }

  // Candidate segments: the label disjunction in request order, or every
  // server when no label was named (RM default policy). Each segment is a
  // persistent Fenwick sampler; segment order reproduces the order the dense
  // scan used to concatenate candidate lists in.
  std::vector<const WeightedPicker*> segments;
  std::vector<int> segment_class;  // -1 = all-servers segment
  if (request.allowed_classes.empty()) {
    segments.push_back(&all_servers_picker_);
    segment_class.push_back(-1);
  } else {
    for (int c : request.allowed_classes) {
      if (c >= 0 && c < num_classes_) {
        segments.push_back(&class_pickers_[static_cast<size_t>(c)]);
        segment_class.push_back(c);
      }
    }
  }

  // Each draw consumes exactly one NextDouble() iff some weight is positive,
  // matching Rng::WeightedIndex on the dense candidate vector bit for bit
  // (weights are integers, so every comparison below is exact arithmetic;
  // see src/util/weighted_picker.h).
  for (int n = 0; n < request.count; ++n) {
    int64_t grand_total = 0;
    for (const WeightedPicker* segment : segments) {
      grand_total += segment->Total();
    }
    if (grand_total <= 0) {
      break;  // nothing fits; caller queues the remainder (no RNG consumed)
    }
    double point = rng.NextDouble() * static_cast<double>(grand_total);
    ServerId server = kInvalidServer;
    for (size_t g = 0; g < segments.size(); ++g) {
      const WeightedPicker& segment = *segments[g];
      double segment_total = static_cast<double>(segment.Total());
      // point == 0 (NextDouble() drew 0.0) selects the first positive
      // weight overall, exactly like the dense subtraction scan.
      bool in_segment = point <= 0.0 ? segment.Total() > 0 : point <= segment_total;
      if (in_segment) {
        size_t index = segment.LowerBound(point > 0.0 ? point : 0.5);
        server = segment_class[g] < 0
                     ? static_cast<ServerId>(index)
                     : class_servers_[static_cast<size_t>(segment_class[g])][index];
        break;
      }
      point -= segment_total;
    }
    HARVEST_CHECK(server != kInvalidServer) << "weighted draw failed with total "
                                            << grand_total;

    Container container;
    container.id = next_container_id_++;
    container.job = request.job;
    container.server = server;
    container.resources = request.resources;
    container.start_time = t;
    nodes_[static_cast<size_t>(server)].AddContainer(container);
    active_.Insert(server);
    placed.push_back(container);
    ResyncNode(server);
  }
  return placed;
}

void ResourceManager::Release(const Container& container) {
  NodeManager& node = nodes_[static_cast<size_t>(container.server)];
  bool removed = node.RemoveContainer(container.id);
  HARVEST_CHECK(removed) << "released container " << container.id << " not found on server "
                         << container.server;
  if (node.idle()) {
    active_.Erase(container.server);
    MaybeParkOnDrain(container.server);
  }
  ResyncNode(container.server);
}

std::vector<Container> ResourceManager::EnforceReserves(double t) {
  EnsureSlot(t);
  std::vector<Container> killed;
  // active_ holds exactly the non-idle servers, so this visits the same
  // nodes in the same ascending ServerId order the dense fleet sweep did
  // (idle nodes contributed nothing there). A kill can idle the visited
  // node and erase it mid-sweep; the scan resumes past it.
  for (int64_t next = active_.Next(0); next >= 0; next = active_.Next(next + 1)) {
    const ServerId s = static_cast<ServerId>(next);
    NodeManager& node = nodes_[static_cast<size_t>(s)];
    std::vector<Container> k = node.EnforceReserve(t);
    if (!k.empty()) {
      if (node.idle()) {
        active_.Erase(s);
        MaybeParkOnDrain(s);
      }
      ResyncNode(s);
      killed.insert(killed.end(), k.begin(), k.end());
    }
  }
  total_kills_ += static_cast<int64_t>(killed.size());
  return killed;
}

void ResourceManager::ConfigureRightSizing(const RightSizingOptions& options) {
  rightsizing_ = options;
  parked_.assign(nodes_.size(), 0);
  trace_parkable_.assign(static_cast<size_t>(table_.num_traces()), 0);
  group_parked_.assign(static_cast<size_t>(table_.num_groups()), 0);
  parked_count_ = 0;
  parking_stats_ = ParkingStats{};
  park_windows_.clear();
  park_windows_.resize(static_cast<size_t>(table_.num_traces()));
  for (int w = 0; w < table_.num_traces(); ++w) {
    park_windows_[static_cast<size_t>(w)].trace = table_.trace(w);
  }
  park_start_slot_ = kNoSlot;
  cached_slot_ = kNoSlot;  // rebuild availability under the new parked gates
}

void ResourceManager::ParkServer(ServerId s) {
  parked_[static_cast<size_t>(s)] = 1;
  ++group_parked_[static_cast<size_t>(table_.group()[static_cast<size_t>(s)])];
  ++parked_count_;
  ++parking_stats_.park_events;
}

void ResourceManager::UnparkServer(ServerId s) {
  parked_[static_cast<size_t>(s)] = 0;
  --group_parked_[static_cast<size_t>(table_.group()[static_cast<size_t>(s)])];
  --parked_count_;
  ++parking_stats_.unpark_events;
}

void ResourceManager::MaybeParkOnDrain(ServerId s) {
  if (!rightsizing_.enabled || parked_[static_cast<size_t>(s)] != 0 || IsDown(s)) {
    return;
  }
  const int32_t trace = table_.trace_index()[static_cast<size_t>(s)];
  if (trace >= 0 && trace_parkable_[static_cast<size_t>(trace)] != 0) {
    ParkServer(s);  // caller resyncs the node right after
  }
}

void ResourceManager::UpdateParking(double t) {
  if (!rightsizing_.enabled) {
    return;
  }
  EnsureSlot(t);
  // Park-decision forecast: the day-ago window peak over the fixed
  // kMinForecastWindowSeconds horizon, slid per pooled trace exactly like
  // RefreshForecasts' windows (but on an independent deque set, since the
  // placement profile's window size changes with the request mix).
  const int64_t start_slot = NodeManager::ForecastStartSlot(t);
  const int samples = NodeManager::ForecastSampleCount(kMinForecastWindowSeconds);
  if (start_slot != park_start_slot_) {
    const bool rebuild = park_start_slot_ == kNoSlot || start_slot < park_start_slot_ ||
                         start_slot - park_start_slot_ >= samples;
    for (TraceWindow& window : park_windows_) {
      AdvanceTraceWindow(window, start_slot, samples, rebuild, park_start_slot_, /*wrap=*/true);
    }
    park_start_slot_ = start_slot;
  }
  // Parkability per pooled trace: a threshold on the utilization FRACTION
  // (capacity-independent, so one decision covers the whole shared-trace
  // group) of both the live value and the day-ago window peak.
  for (int w = 0; w < table_.num_traces(); ++w) {
    const size_t i = static_cast<size_t>(w);
    const double live = table_.trace(w)->AtTime(t);
    trace_parkable_[i] = live <= rightsizing_.park_threshold &&
                                 park_windows_[i].peak <= rightsizing_.park_threshold
                             ? 1
                             : 0;
  }
  // Transitions in ServerId order (deterministic; ResyncNode keeps every
  // sampler and aggregate exact as we go). Parked servers host no
  // containers, so an unpark never needs reserve enforcement and a park
  // never strands one.
  const std::vector<int32_t>& trace_of = table_.trace_index();
  for (size_t s = 0; s < nodes_.size(); ++s) {
    const int32_t trace = trace_of[s];
    const bool parkable = trace >= 0 && trace_parkable_[static_cast<size_t>(trace)] != 0;
    if (parked_[s] != 0 && !parkable) {
      UnparkServer(static_cast<ServerId>(s));
      if (trace >= 0 && table_.trace(trace)->AtTime(t) > rightsizing_.park_threshold) {
        ++parking_stats_.forced_unparks;  // live demand beat the forecast
      }
      ResyncNode(static_cast<ServerId>(s));
    } else if (parked_[s] == 0 && parkable && nodes_[s].idle() &&
               !IsDown(static_cast<ServerId>(s))) {
      // A down server is already invisible to placement; parking it would
      // double-count the unavailability and bill a fault as a policy win.
      ParkServer(static_cast<ServerId>(s));
      ResyncNode(static_cast<ServerId>(s));
    }
  }
}

std::vector<Container> ResourceManager::SetServerDown(ServerId s, bool is_down) {
  std::vector<Container> evicted;
  if (down_.empty()) {
    down_.assign(nodes_.size(), 0);
  }
  const size_t i = static_cast<size_t>(s);
  if ((down_[i] != 0) == is_down) {
    return evicted;  // no transition
  }
  down_[i] = is_down ? 1 : 0;
  down_count_ += is_down ? 1 : -1;
  if (is_down && !nodes_[i].idle()) {
    // Power loss kills everything the node hosts; the caller accounts the
    // evictions (AM retries, pending re-queue) like reserve kills.
    evicted = nodes_[i].RemoveAllContainers();
    active_.Erase(s);
  }
  ResyncNode(s);
  return evicted;
}

void ResourceManager::SetForecastDegraded(bool degraded) {
  if (forecast_degraded_ == degraded) {
    return;
  }
  forecast_degraded_ = degraded;
  // Every cached weight embeds the bonus gate; force a full rebuild at the
  // next query.
  cached_slot_ = kNoSlot;
}

double ResourceManager::ClassCurrentUtilization(int class_id, double t) const {
  if (class_id < 0 || class_id >= num_classes_) {
    return 1.0;
  }
  const auto& servers = class_servers_[static_cast<size_t>(class_id)];
  if (servers.empty()) {
    return 1.0;
  }
  EnsureSlot(t);
  const size_t c = static_cast<size_t>(class_id);
  if (class_util_slot_[c] != cached_slot_) {
    // Once per class per telemetry slot: the primary traces are piecewise-
    // constant at kSlotSeconds granularity, so every query in a slot sees
    // the same mean (same terms, same summation order).
    double sum = 0.0;
    for (ServerId s : servers) {
      sum += cluster_->server(s).PrimaryUtilizationAt(t);
    }
    class_util_value_[c] = sum / static_cast<double>(servers.size());
    class_util_slot_[c] = cached_slot_;
  }
  return class_util_value_[c];
}

int ResourceManager::ClassAvailableCores(int class_id, double t) const {
  if (class_id < 0 || class_id >= num_classes_) {
    return 0;
  }
  EnsureSlot(t);
  return static_cast<int>(class_avail_cores_[static_cast<size_t>(class_id)]);
}

double ResourceManager::AverageTotalUtilization(double t) const {
  if (nodes_.empty()) {
    return 0.0;
  }
  // Deliberately the dense per-server sum: this is a float accumulation in
  // ServerId order, and regrouping it (per group, say) would change the
  // rounding -- and therefore emitted bytes.
  double sum = 0.0;
  for (const auto& node : nodes_) {
    sum += node.TotalUtilization(t);
  }
  return sum / static_cast<double>(nodes_.size());
}

bool ResourceManager::AuditCachesForTest(std::string* error) const {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };
  for (size_t s = 0; s < nodes_.size(); ++s) {
    if (active_.Contains(static_cast<int64_t>(s)) == nodes_[s].idle()) {
      return fail("active set out of sync for server " + std::to_string(s));
    }
  }
  if (rightsizing_.enabled) {
    // Parking bookkeeping: parked implies idle, and the per-group / total
    // counters must match a dense recount of the parked bits.
    int64_t parked_total = 0;
    std::vector<int32_t> expected_group(static_cast<size_t>(table_.num_groups()), 0);
    for (size_t s = 0; s < nodes_.size(); ++s) {
      if (parked_[s] == 0) {
        continue;
      }
      if (!nodes_[s].idle()) {
        return fail("parked server " + std::to_string(s) + " hosts containers");
      }
      ++parked_total;
      ++expected_group[static_cast<size_t>(table_.group()[s])];
    }
    if (parked_total != parked_count_) {
      return fail("parked count out of sync");
    }
    if (expected_group != group_parked_) {
      return fail("per-group parked counts out of sync");
    }
  }
  if (!down_.empty()) {
    // Fault bookkeeping: down implies idle (SetServerDown evicted the node),
    // and the counter must match a dense recount of the bits.
    int64_t down_total = 0;
    for (size_t s = 0; s < nodes_.size(); ++s) {
      if (down_[s] == 0) {
        continue;
      }
      if (!nodes_[s].idle()) {
        return fail("down server " + std::to_string(s) + " hosts containers");
      }
      ++down_total;
    }
    if (down_total != down_count_) {
      return fail("down count out of sync");
    }
  }
  if (cached_slot_ == kNoSlot) {
    return true;  // nothing cached yet
  }
  const double t = cache_time_;
  int64_t weight_total = 0;
  for (size_t s = 0; s < nodes_.size(); ++s) {
    const NodeManager& node = nodes_[s];
    const bool unavailable = IsUnavailable(static_cast<ServerId>(s));
    const std::string at = " for server " + std::to_string(s);
    if (node.PrimaryCores(t) != node_primary_cores_[s]) {
      return fail("stale primary cores" + at);
    }
    if ((unavailable ? Resources{0, 0} : node.AvailableForSecondary(t)) != node_avail_[s]) {
      return fail("stale availability" + at);
    }
    if (!profile_.valid) {
      continue;
    }
    if (profile_.history_aware &&
        node.ForecastPrimaryCores(t, profile_.window_seconds) != node_forecast_cores_[s]) {
      return fail("stale forecast" + at);
    }
    // The dense placement-weight formula, recomputed from scratch: live
    // room, boosted when the history forecast says this shape survives here
    // (the eligibility filter of NodeWeight).
    int64_t expected = 0;
    Resources room = unavailable ? Resources{0, 0} : node.AvailableForSecondary(t);
    if (room.Fits(profile_.shape)) {
      expected = room.cores;
      if (profile_.history_aware && !forecast_degraded_ &&
          node.AvailableForTask(t, profile_.window_seconds).Fits(profile_.shape)) {
        expected += kTypeRoomBonus * room.cores;
      }
    }
    if (expected != node_weight_[s]) {
      return fail("stale weight" + at);
    }
    if (all_servers_picker_.PrefixSum(s + 1) - all_servers_picker_.PrefixSum(s) != expected) {
      return fail("global Fenwick out of sync" + at);
    }
    weight_total += expected;
  }
  if (profile_.valid && all_servers_picker_.Total() != weight_total) {
    return fail("global Fenwick total mismatch");
  }
  for (int c = 0; c < num_classes_; ++c) {
    const auto& servers = class_servers_[static_cast<size_t>(c)];
    const WeightedPicker& picker = class_pickers_[static_cast<size_t>(c)];
    const std::string at = " for class " + std::to_string(c);
    int64_t cores = 0;
    int64_t class_weight = 0;
    for (size_t i = 0; i < servers.size(); ++i) {
      const size_t s = static_cast<size_t>(servers[i]);
      cores += IsUnavailable(servers[i]) ? 0 : nodes_[s].AvailableForSecondary(t).cores;
      if (profile_.valid) {
        if (picker.PrefixSum(i + 1) - picker.PrefixSum(i) != node_weight_[s]) {
          return fail("class Fenwick out of sync" + at);
        }
        class_weight += node_weight_[s];
      }
    }
    if (cores != class_avail_cores_[static_cast<size_t>(c)]) {
      return fail("class available-cores aggregate mismatch" + at);
    }
    if (profile_.valid && picker.Total() != class_weight) {
      return fail("class Fenwick total mismatch" + at);
    }
    if (class_util_slot_[static_cast<size_t>(c)] == cached_slot_ && !servers.empty()) {
      double sum = 0.0;
      for (ServerId s : servers) {
        sum += cluster_->server(s).PrimaryUtilizationAt(t);
      }
      if (sum / static_cast<double>(servers.size()) !=
          class_util_value_[static_cast<size_t>(c)]) {
        return fail("class utilization cache mismatch" + at);
      }
    }
  }
  return true;
}

}  // namespace harvest
