// Time-of-day electricity price curves (the `energy_price` --set knob).
//
// Two forms, chosen by the knob text:
//
//   flat:<price>                          constant $/kWh
//   diurnal:<base>,<amplitude>,<peak_hour> base + amplitude *
//                                          cos(2*pi*(t - peak)/24h), $/kWh
//
// Per-DC phase: the scheduling simulation shifts each DC's peak by
// dc_index * price_phase_hours, modeling fleets spread across time zones /
// regional markets. Cost over an interval of constant power uses the
// closed-form cosine integral -- no per-slot price sampling -- so container
// cost (event-driven, arbitrary [start, end)) and slot cost (fixed 120 s)
// are priced by the same exact expression.

#ifndef HARVEST_SRC_POWER_PRICE_CURVE_H_
#define HARVEST_SRC_POWER_PRICE_CURVE_H_

#include <string>
#include <string_view>

namespace harvest {

class PriceCurve {
 public:
  // Defaults to flat:0.10 (the knob's documented default).
  PriceCurve() = default;

  // Parses the knob text, numbers and lists under the rule of
  // src/util/parse.h. Empty text yields the default flat curve. On failure
  // returns false and fills `error`; `curve` is untouched.
  static bool Parse(std::string_view text, PriceCurve* curve, std::string* error);

  // Moves the peak `seconds` later (per-DC time-zone shift). No-op for flat.
  void ShiftPhase(double seconds) { peak_seconds_ += seconds; }

  // Dollars charged for drawing a constant `watts` over [t0, t1).
  double CostDollars(double watts, double t0, double t1) const;

  double base() const { return base_; }
  double amplitude() const { return amplitude_; }

  // Canonical knob text (what the JSON "energy" block echoes).
  std::string ToString() const;

 private:
  double base_ = 0.10;        // $/kWh
  double amplitude_ = 0.0;    // $/kWh; 0 = flat
  double peak_seconds_ = 18.0 * 3600.0;  // time of day of the price peak
};

}  // namespace harvest

#endif  // HARVEST_SRC_POWER_PRICE_CURVE_H_
