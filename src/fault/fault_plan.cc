#include "src/fault/fault_plan.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "src/util/edit_distance.h"
#include "src/util/rng.h"

namespace harvest {
namespace {

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return false;
}

bool ParseNumber(std::string_view text, double* out, std::string* error) {
  std::string buffer(text);
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(buffer.c_str(), &end);
  if (buffer.empty() || end != buffer.c_str() + buffer.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    return Fail(error, "expected a finite number, got '" + buffer + "'");
  }
  *out = value;
  return true;
}

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> items;
  while (true) {
    size_t pos = text.find(sep);
    items.push_back(text.substr(0, pos));
    if (pos == std::string_view::npos) {
      return items;
    }
    text.remove_prefix(pos + 1);
  }
}

// %g keeps canonical forms short and round-trippable here: both sides of any
// comparison go through parse -> canonical, so formatting precision cancels.
std::string FormatNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

bool ParseSpec(std::string_view text, FaultSpec* spec, std::string* error) {
  size_t colon = text.find(':');
  const std::string_view name = text.substr(0, colon);
  const std::vector<std::string_view> args =
      colon == std::string_view::npos ? std::vector<std::string_view>{}
                                      : Split(text.substr(colon + 1), ',');

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

  auto arg_count_error = [&](size_t want) {
    return Fail(error, std::string(name) + " takes " + std::to_string(want) +
                           " args: " + entry->syntax);
  };
  auto number = [&](size_t i, double* out) {
    std::string detail;
    if (!ParseNumber(args[i], out, &detail)) {
      return Fail(error, std::string(name) + " arg " + std::to_string(i + 1) + ": " + detail);
    }
    return true;
  };

  double start = 0.0;
  double duration = 0.0;
  spec->kind = name == "rack_outage"          ? FaultKind::kRackOutage
               : name == "dc_outage"          ? FaultKind::kDcOutage
               : name == "tor_partition"      ? FaultKind::kTorPartition
               : name == "telemetry_blackout" ? FaultKind::kTelemetryBlackout
                                              : FaultKind::kReimageWave;
  switch (spec->kind) {
    case FaultKind::kRackOutage:
    case FaultKind::kTorPartition: {
      if (args.size() != 3) {
        return arg_count_error(3);
      }
      double rack = 0.0;
      if (!number(0, &start) || !number(1, &rack) || !number(2, &duration)) {
        return false;
      }
      if (rack < 0.0 || rack != std::floor(rack)) {
        return Fail(error, std::string(name) + ": rack must be a non-negative integer");
      }
      spec->rack = static_cast<int64_t>(rack);
      break;
    }
    case FaultKind::kDcOutage:
    case FaultKind::kTelemetryBlackout: {
      if (args.size() != 2) {
        return arg_count_error(2);
      }
      if (!number(0, &start) || !number(1, &duration)) {
        return false;
      }
      break;
    }
    case FaultKind::kReimageWave: {
      if (args.size() != 3) {
        return arg_count_error(3);
      }
      double fraction = 0.0;
      double spread = 0.0;
      if (!number(0, &start) || !number(1, &fraction) || !number(2, &spread)) {
        return false;
      }
      if (fraction < 0.0 || fraction > 1.0) {
        return Fail(error, "reimage_wave: fraction must be in [0, 1]");
      }
      if (spread < 0.0) {
        return Fail(error, "reimage_wave: spread must be >= 0");
      }
      spec->fraction = fraction;
      spec->spread_seconds = spread;
      break;
    }
  }
  if (start < 0.0) {
    return Fail(error, std::string(name) + ": start must be >= 0");
  }
  if (spec->kind != FaultKind::kReimageWave && duration <= 0.0) {
    return Fail(error, std::string(name) + ": duration must be > 0");
  }
  spec->start_seconds = start;
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

bool ParseFaultPlan(const std::string& text, FaultPlan* plan, std::string* error) {
  plan->specs.clear();
  if (text.empty() || text == "none") {
    return true;
  }
  for (std::string_view part : Split(text, '+')) {
    if (part.empty()) {
      return Fail(error, "fault plan has an empty spec (stray '+')");
    }
    FaultSpec spec;
    if (!ParseSpec(part, &spec, error)) {
      return false;
    }
    plan->specs.push_back(spec);
  }
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
  double total = 0.0;
  for (const ServerDownInterval& interval : down) {
    const double start = std::min(interval.start, horizon);
    const double end = std::min(interval.end, horizon);
    total += end - start;
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
  timeline.num_racks = num_racks;

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
  return timeline;
}

}  // namespace harvest
