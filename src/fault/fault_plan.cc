#include "src/fault/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <tuple>

#include "src/util/edit_distance.h"
#include "src/util/parse.h"
#include "src/util/rng.h"

namespace harvest {
namespace {

// The state flips of a set of [start, end) intervals keyed by `id`: edges
// sorted by (time, id, leave before enter) and depth-counted per id, keeping
// only the edges that change an id's state.
template <typename Interval>
std::vector<FaultTransition> MergedTransitions(const std::vector<Interval>& intervals,
                                               int32_t Interval::*id) {
  struct Edge {
    double time;
    int32_t id;
    int delta;  // +1 enters an interval, -1 leaves one
  };
  std::vector<Edge> edges;
  edges.reserve(intervals.size() * 2);
  int32_t max_id = -1;
  for (const Interval& interval : intervals) {
    edges.push_back({interval.start, interval.*id, +1});
    edges.push_back({interval.end, interval.*id, -1});
    max_id = std::max(max_id, interval.*id);
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.time, a.id, a.delta) < std::tie(b.time, b.id, b.delta);
  });
  std::vector<int> depth(static_cast<size_t>(max_id + 1), 0);
  std::vector<FaultTransition> transitions;
  for (const Edge& edge : edges) {
    int& count = depth[static_cast<size_t>(edge.id)];
    const bool was_in = count > 0;
    count += edge.delta;
    if (was_in != (count > 0)) {
      transitions.push_back({edge.time, edge.id, count > 0});
    }
  }
  return transitions;
}

bool ParseSpec(std::string_view text, FaultSpec* spec, std::string* error) {
  const size_t colon = text.find(':');
  const std::string_view name = text.substr(0, colon);

  const FaultGrammarEntry* entry = nullptr;
  for (const FaultGrammarEntry& candidate : FaultGrammar()) {
    if (name == candidate.name) {
      entry = &candidate;
      break;
    }
  }
  if (entry == nullptr) {
    std::string message = "unknown fault kind '" + std::string(name) + "'";
    if (const auto closest = ClosestMatch(name, FaultGrammar(), &FaultGrammarEntry::name)) {
      message += "; did you mean '" + std::string(*closest) + "'?";
    }
    return Fail(error, message + " (see harvest_sim --list-faults)");
  }

  std::vector<double> args;
  std::string detail;
  if (colon != std::string_view::npos &&
      !ParseDoubleList(text.substr(colon + 1), &args, &detail)) {
    return Fail(error, std::string(name) + ": " + detail);
  }
  spec->kind = name == "rack_outage"          ? FaultKind::kRackOutage
               : name == "dc_outage"          ? FaultKind::kDcOutage
               : name == "tor_partition"      ? FaultKind::kTorPartition
               : name == "telemetry_blackout" ? FaultKind::kTelemetryBlackout
                                              : FaultKind::kReimageWave;
  const size_t want =
      spec->kind == FaultKind::kDcOutage || spec->kind == FaultKind::kTelemetryBlackout ? 2 : 3;
  if (args.size() != want) {
    return Fail(error, std::string(name) + " takes " + std::to_string(want) +
                           " args: " + entry->syntax);
  }

  double duration = 0.0;
  switch (spec->kind) {
    case FaultKind::kRackOutage:
    case FaultKind::kTorPartition: {
      // 2^63 and up does not fit the int64 rack id (the cast would be
      // undefined, and a wrapped negative rack indexes out of bounds).
      const double rack = args[1];
      if (rack < 0.0 || rack != std::floor(rack) || rack >= 0x1p63) {
        return Fail(error, std::string(name) + ": rack must be a non-negative integer below 2^63");
      }
      spec->rack = static_cast<int64_t>(rack);
      duration = args[2];
      break;
    }
    case FaultKind::kDcOutage:
    case FaultKind::kTelemetryBlackout:
      duration = args[1];
      break;
    case FaultKind::kReimageWave:
      if (args[1] < 0.0 || args[1] > 1.0) {
        return Fail(error, "reimage_wave: fraction must be in [0, 1]");
      }
      if (args[2] < 0.0) {
        return Fail(error, "reimage_wave: spread must be >= 0");
      }
      spec->fraction = args[1];
      spec->spread_seconds = args[2];
      break;
  }
  if (args[0] < 0.0) {
    return Fail(error, std::string(name) + ": start must be >= 0");
  }
  if (spec->kind != FaultKind::kReimageWave && duration <= 0.0) {
    return Fail(error, std::string(name) + ": duration must be > 0");
  }
  spec->start_seconds = args[0];
  spec->duration_seconds = duration;
  return true;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kRackOutage:
      return "rack_outage";
    case FaultKind::kDcOutage:
      return "dc_outage";
    case FaultKind::kTorPartition:
      return "tor_partition";
    case FaultKind::kTelemetryBlackout:
      return "telemetry_blackout";
    case FaultKind::kReimageWave:
      return "reimage_wave";
  }
  return "unknown";
}

const std::vector<FaultGrammarEntry>& FaultGrammar() {
  static const std::vector<FaultGrammarEntry>* grammar =
      new std::vector<FaultGrammarEntry>{
          {"rack_outage", "rack_outage:START,RACK,DURATION",
           "all servers in RACK lose power at START and return (reimaged) after "
           "DURATION seconds"},
          {"dc_outage", "dc_outage:START,DURATION",
           "the whole fleet loses power at START and returns after DURATION"},
          {"tor_partition", "tor_partition:START,RACK,DURATION",
           "RACK keeps computing but is unreachable for replication and heal "
           "traffic for DURATION seconds"},
          {"telemetry_blackout", "telemetry_blackout:START,DURATION",
           "history windows overlapping the interval are missing; H placement "
           "falls back to live availability"},
          {"reimage_wave", "reimage_wave:START,FRACTION,SPREAD",
           "FRACTION of the fleet reimages at START + U[0, SPREAD) each "
           "(correlated redeployment wave)"},
      };
  return *grammar;
}

bool ParseFaultPlan(std::string_view text, FaultPlan* plan, std::string* error) {
  FaultPlan parsed;
  if (!text.empty() && text != "none") {
    std::vector<std::string_view> parts;
    if (!SplitList(text, &parts, nullptr, '+')) {
      return Fail(error, "fault plan has an empty spec (stray '+')");
    }
    for (std::string_view part : parts) {
      FaultSpec spec;
      if (!ParseSpec(part, &spec, error)) {
        return false;
      }
      parsed.specs.push_back(spec);
    }
  }
  *plan = std::move(parsed);
  return true;
}

std::string CanonicalFaultPlan(const FaultPlan& plan) {
  if (plan.empty()) {
    return "none";
  }
  std::string out;
  for (const FaultSpec& spec : plan.specs) {
    if (!out.empty()) {
      out += '+';
    }
    out += FaultKindName(spec.kind);
    out += ':';
    out += FormatNumber(spec.start_seconds);
    out += ',';
    switch (spec.kind) {
      case FaultKind::kRackOutage:
      case FaultKind::kTorPartition:
        out += std::to_string(spec.rack);
        out += ',';
        out += FormatNumber(spec.duration_seconds);
        break;
      case FaultKind::kDcOutage:
      case FaultKind::kTelemetryBlackout:
        out += FormatNumber(spec.duration_seconds);
        break;
      case FaultKind::kReimageWave:
        out += FormatNumber(spec.fraction);
        out += ',';
        out += FormatNumber(spec.spread_seconds);
        break;
    }
  }
  return out;
}

double FaultTimeline::UnavailabilityServerSeconds(double horizon) const {
  // The integral of the down-server count, so a server inside several
  // intervals at once counts once.
  double total = 0.0;
  double last = 0.0;
  int64_t servers_down = 0;
  for (const FaultTransition& transition : server_transitions) {
    const double time = std::min(transition.time, horizon);
    total += static_cast<double>(servers_down) * (time - last);
    last = time;
    servers_down += transition.begins ? 1 : -1;
  }
  return total;
}

bool FaultTimeline::OverlapsBlackout(double start, double end) const {
  for (const BlackoutInterval& blackout : blackouts) {
    if (start <= blackout.end && blackout.start <= end) {
      return true;
    }
  }
  return false;
}

FaultTimeline CompileFaultPlan(const FaultPlan& plan, const Cluster& cluster,
                               uint64_t seed) {
  FaultTimeline timeline;
  int num_racks = 0;
  for (const Server& server : cluster.servers()) {
    num_racks = std::max(num_racks, static_cast<int>(server.rack) + 1);
  }

  // One stream for the whole plan, consumed in spec order: adding a spec
  // shifts later specs' draws but never depends on threading or shards.
  Rng rng(seed);
  for (const FaultSpec& spec : plan.specs) {
    FaultEvent event;
    event.kind = spec.kind;
    event.start = spec.start_seconds;
    event.end = spec.start_seconds + spec.duration_seconds;
    switch (spec.kind) {
      case FaultKind::kRackOutage:
      case FaultKind::kTorPartition: {
        const int rack =
            num_racks > 0 ? static_cast<int>(spec.rack % num_racks) : 0;
        event.rack = rack;
        for (const Server& server : cluster.servers()) {
          if (static_cast<int>(server.rack) != rack) {
            continue;
          }
          ++event.servers_affected;
          if (spec.kind == FaultKind::kRackOutage) {
            timeline.down.push_back({event.start, event.end, server.id});
          }
        }
        if (spec.kind == FaultKind::kTorPartition) {
          timeline.partitions.push_back({event.start, event.end, rack});
        }
        break;
      }
      case FaultKind::kDcOutage: {
        for (const Server& server : cluster.servers()) {
          timeline.down.push_back({event.start, event.end, server.id});
        }
        event.servers_affected = static_cast<int64_t>(cluster.num_servers());
        break;
      }
      case FaultKind::kTelemetryBlackout: {
        timeline.blackouts.push_back({event.start, event.end});
        break;
      }
      case FaultKind::kReimageWave: {
        const int64_t fleet = static_cast<int64_t>(cluster.num_servers());
        const int64_t count = std::min(
            fleet, static_cast<int64_t>(std::llround(spec.fraction *
                                                     static_cast<double>(fleet))));
        // Partial Fisher-Yates over the id space: the first `count` entries
        // are a uniform sample of distinct servers.
        std::vector<ServerId> ids(static_cast<size_t>(fleet));
        for (int64_t i = 0; i < fleet; ++i) {
          ids[static_cast<size_t>(i)] = static_cast<ServerId>(i);
        }
        for (int64_t i = 0; i < count; ++i) {
          const int64_t j = i + static_cast<int64_t>(rng.NextBounded(
                                    static_cast<uint64_t>(fleet - i)));
          std::swap(ids[static_cast<size_t>(i)], ids[static_cast<size_t>(j)]);
          const double when =
              spec.start_seconds + rng.NextDouble() * spec.spread_seconds;
          timeline.wave_reimages.push_back({when, ids[static_cast<size_t>(i)]});
        }
        event.end = spec.start_seconds + spec.spread_seconds;
        event.servers_affected = count;
        break;
      }
    }
    timeline.events.push_back(event);
  }

  auto by_time_server = [](const auto& a, const auto& b) {
    if (a.start != b.start) {
      return a.start < b.start;
    }
    return a.server < b.server;
  };
  std::sort(timeline.down.begin(), timeline.down.end(), by_time_server);
  std::sort(timeline.wave_reimages.begin(), timeline.wave_reimages.end(),
            [](const WaveReimage& a, const WaveReimage& b) {
              if (a.time != b.time) {
                return a.time < b.time;
              }
              return a.server < b.server;
            });
  timeline.server_transitions = MergedTransitions(timeline.down, &ServerDownInterval::server);
  timeline.rack_transitions =
      MergedTransitions(timeline.partitions, &RackPartitionInterval::rack);
  return timeline;
}

}  // namespace harvest
