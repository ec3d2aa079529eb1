// Scriptable, seed-deterministic fault injection (ISSUE 8).
//
// A fault *plan* is a small textual grammar ("rack_outage:7200,1,7200",
// specs composed with '+') parsed once per scenario and *compiled* against a
// concrete Cluster into a FaultTimeline: timestamped server-down intervals,
// ToR partition intervals, telemetry blackout windows and correlated reimage
// waves. Compilation draws only from the Rng seed passed in (the driver uses
// the per-(seed, dc) "fault" stream), so every stage that compiles the same
// plan against the same fleet sees the identical timeline -- byte-identical
// across --threads by construction.
//
// The kinds:
//   rack_outage:START,RACK,DURATION        all servers in RACK vanish at START
//                                          and return (reimaged) DURATION later
//   dc_outage:START,DURATION               the whole fleet vanishes and returns
//   tor_partition:START,RACK,DURATION      RACK stays up for compute but is
//                                          invisible to replication / heal
//   telemetry_blackout:START,DURATION      history windows overlapping the
//                                          interval are missing (H falls back)
//   reimage_wave:START,FRACTION,SPREAD     FRACTION of the fleet reimages at
//                                          START + U[0, SPREAD) each
//
// Times are seconds; RACK is taken modulo the fleet's rack count at compile
// time so plans stay portable across --scale.

#ifndef HARVEST_SRC_FAULT_FAULT_PLAN_H_
#define HARVEST_SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/types.h"

namespace harvest {

enum class FaultKind {
  kRackOutage,
  kDcOutage,
  kTorPartition,
  kTelemetryBlackout,
  kReimageWave,
};

const char* FaultKindName(FaultKind kind);

// One parsed spec, straight from the grammar (not yet bound to a fleet).
struct FaultSpec {
  FaultKind kind = FaultKind::kRackOutage;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;  // outages / partitions / blackouts
  int64_t rack = 0;               // rack_outage / tor_partition (pre-modulo)
  double fraction = 0.0;          // reimage_wave
  double spread_seconds = 0.0;    // reimage_wave
};

struct FaultPlan {
  std::vector<FaultSpec> specs;
  bool empty() const { return specs.empty(); }
};

// Grammar table driving --list-faults and the did-you-mean suggestion.
struct FaultGrammarEntry {
  const char* name;
  const char* syntax;
  const char* help;
};
const std::vector<FaultGrammarEntry>& FaultGrammar();

// Parses "kind:a,b,c+kind:a,b" into a plan, numbers and lists under the
// rule of src/util/parse.h. Empty text and "none" parse to an empty plan. On
// failure returns false, fills *error (with a did-you-mean suggestion for a
// mistyped kind) and leaves *plan untouched.
bool ParseFaultPlan(std::string_view text, FaultPlan* plan, std::string* error);

// Canonical textual form: parse(CanonicalFaultPlan(p)) == p, and two plans
// are equivalent iff their canonical forms match (used by the trace-manifest
// replay guard). Empty plan renders as "none".
std::string CanonicalFaultPlan(const FaultPlan& plan);

// --- Compiled timeline ----------------------------------------------------

// One injected event, for reporting (spec order, one per spec).
struct FaultEvent {
  FaultKind kind = FaultKind::kRackOutage;
  double start = 0.0;
  double end = 0.0;
  int rack = -1;  // -1 when not rack-scoped
  int64_t servers_affected = 0;
};

struct ServerDownInterval {
  double start = 0.0;
  double end = 0.0;
  ServerId server = kInvalidServer;
};

struct RackPartitionInterval {
  double start = 0.0;
  double end = 0.0;
  RackId rack = 0;
};

struct BlackoutInterval {
  double start = 0.0;
  double end = 0.0;
};

struct WaveReimage {
  double time = 0.0;
  ServerId server = kInvalidServer;
};

// One state flip of a server (down / back up) or of a rack's ToR partition
// (on / off), merged over all of the plan's intervals: an id inside several
// intervals at once flips once on entering the first and once on leaving the
// last. Sorted by (time, id), a recovery before a failure at the same
// instant, so abutting intervals flip up and straight back down.
struct FaultTransition {
  double time = 0.0;
  int32_t id = 0;       // ServerId or RackId
  bool begins = false;  // goes down / partition starts
};

struct FaultTimeline {
  std::vector<FaultEvent> events;           // spec order
  std::vector<ServerDownInterval> down;     // sorted by (start, server)
  std::vector<RackPartitionInterval> partitions;
  std::vector<BlackoutInterval> blackouts;
  std::vector<WaveReimage> wave_reimages;   // sorted by (time, server)
  // The merged flips of `down` and of `partitions`, which the scheduling
  // simulation and the storage replay apply as they come due.
  std::vector<FaultTransition> server_transitions;
  std::vector<FaultTransition> rack_transitions;

  bool empty() const {
    return down.empty() && partitions.empty() && blackouts.empty() &&
           wave_reimages.empty();
  }
  // Server-seconds of injected unavailability within [0, horizon), each
  // server counted once however many intervals hold it.
  double UnavailabilityServerSeconds(double horizon) const;
  // True when [start, end) intersects any blackout interval.
  bool OverlapsBlackout(double start, double end) const;
  bool InBlackout(double t) const { return OverlapsBlackout(t, t); }
};

// Binds a plan to a fleet. All randomness (reimage-wave victims and jitter)
// comes from Rng(seed), consumed in spec order -- independent of threading.
FaultTimeline CompileFaultPlan(const FaultPlan& plan, const Cluster& cluster,
                               uint64_t seed);

}  // namespace harvest

#endif  // HARVEST_SRC_FAULT_FAULT_PLAN_H_
