// Per-run knob overrides for the harvest_sim driver: scenarios are derived
// on the command line from any built-in preset (AllScenarios(),
// src/driver/scenario.h) via `--set key=value` overrides resolved against
// the knob table below.
//
// Every knob name maps 1:1 onto a ScenarioConfig field; unknown keys and
// malformed values are usage errors with a human-readable message, never
// silent fall-throughs.

#ifndef HARVEST_SRC_DRIVER_REGISTRY_H_
#define HARVEST_SRC_DRIVER_REGISTRY_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/driver/scenario.h"

namespace harvest {

// --- Knob table -----------------------------------------------------------

// One overridable ScenarioConfig field.
struct ScenarioKnob {
  const char* name;
  // Human-readable value syntax, e.g. "double > 0" or "list of DC names".
  const char* syntax;
  const char* help;
  // Parses `value` into `config`; returns false and sets `error` on a
  // malformed or out-of-range value.
  std::function<bool(ScenarioConfig&, std::string_view value, std::string* error)> apply;
};

// All knobs, in ScenarioConfig declaration order.
const std::vector<ScenarioKnob>& ScenarioKnobs();

// Splits a `key=value` override string. Returns false with an error message
// when the '=' is missing or the key is empty.
bool SplitOverride(std::string_view text, std::string* key, std::string* value,
                   std::string* error);

// How one override application ended. The two failure kinds are distinct on
// purpose: an unknown key means the caller mistyped a knob name (fixable via
// --list-knobs / the did-you-mean suggestion), a bad value means the knob
// exists but the value failed its parser -- callers and tests must never have
// to grep the message text to tell them apart.
enum class OverrideStatus {
  kOk = 0,
  kUnknownKey,
  kBadValue,
};

// Applies one override to `config`. Unknown keys and malformed values fail
// with a message naming the key (and, for unknown keys, the closest match),
// and report which of the two it was in the return value.
OverrideStatus ApplyScenarioOverrideStatus(ScenarioConfig& config, std::string_view key,
                                           std::string_view value, std::string* error);

// Back-compat boolean wrapper: true iff OverrideStatus::kOk.
bool ApplyScenarioOverride(ScenarioConfig& config, std::string_view key,
                           std::string_view value, std::string* error);

// Cross-knob consistency checks, run after all overrides are applied (a
// single knob can't see the final config). Returns an empty string when the
// config is runnable at `scale` (the --scale flag), else a usage-error
// message — e.g. server_shapes on a testbed scenario (the paper's testbed is
// homogeneous by construction, so the knob would be silently ignored), an
// empty datacenter list, a size that `scale` pushes out of the range its
// knob accepts, or a datacenter whose tenant count does not fit an int.
std::string ValidateScenario(const ScenarioConfig& config, double scale = 1.0);

}  // namespace harvest

#endif  // HARVEST_SRC_DRIVER_REGISTRY_H_
