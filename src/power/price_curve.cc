#include "src/power/price_curve.h"

#include <cmath>
#include <cstdio>
#include <vector>

#include "src/util/parse.h"

namespace harvest {
namespace {

constexpr double kDaySeconds = 24.0 * 3600.0;
constexpr double kTwoPi = 6.283185307179586476925286766559;

}  // namespace

bool PriceCurve::Parse(std::string_view text, PriceCurve* curve, std::string* error) {
  PriceCurve parsed;
  if (text.empty()) {
    *curve = parsed;
    return true;
  }
  const size_t colon = text.find(':');
  const std::string_view kind = text.substr(0, colon);
  std::vector<double> fields;
  std::string detail;
  const bool numbers = colon != std::string_view::npos &&
                       ParseDoubleList(text.substr(colon + 1), &fields, &detail);
  const std::string why = detail.empty() ? "" : " (" + detail + ")";
  if (kind == "flat") {
    if (!numbers || fields.size() != 1 || fields[0] <= 0.0) {
      return Fail(error,
                  "energy_price: expected flat:<dollars_per_kwh> with a positive price" + why);
    }
    parsed.base_ = fields[0];
    parsed.amplitude_ = 0.0;
  } else if (kind == "diurnal") {
    if (!numbers || fields.size() != 3) {
      return Fail(error, "energy_price: expected diurnal:<base>,<amplitude>,<peak_hour>" + why);
    }
    const double base = fields[0];
    const double amplitude = fields[1];
    const double peak_hour = fields[2];
    if (base <= 0.0 || amplitude < 0.0 || amplitude > base) {
      return Fail(error, "energy_price: need base > 0 and 0 <= amplitude <= base "
                         "(the spot price must stay positive)");
    }
    if (peak_hour < 0.0 || peak_hour >= 24.0) {
      return Fail(error, "energy_price: peak_hour must be in [0, 24)");
    }
    parsed.base_ = base;
    parsed.amplitude_ = amplitude;
    parsed.peak_seconds_ = peak_hour * 3600.0;
  } else {
    return Fail(error, "energy_price: unknown curve kind '" + std::string(kind) +
                           "' (use flat:... or diurnal:...)");
  }
  *curve = parsed;
  return true;
}

double PriceCurve::CostDollars(double watts, double t0, double t1) const {
  if (t1 <= t0 || watts <= 0.0) {
    return 0.0;
  }
  // Integral of the $/kWh spot price over [t0, t1), in $*s/kWh: the flat
  // term plus the closed-form cosine antiderivative.
  double integral = base_ * (t1 - t0);
  if (amplitude_ != 0.0) {
    const double scale = kDaySeconds / kTwoPi;
    integral += amplitude_ * scale *
                (std::sin(kTwoPi * (t1 - peak_seconds_) / kDaySeconds) -
                 std::sin(kTwoPi * (t0 - peak_seconds_) / kDaySeconds));
  }
  // watts -> kW, seconds of $/kWh -> hours.
  return (watts / 1000.0) * integral / 3600.0;
}

std::string PriceCurve::ToString() const {
  char buffer[96];
  if (amplitude_ == 0.0) {
    std::snprintf(buffer, sizeof(buffer), "flat:%g", base_);
  } else {
    double peak_hour = std::fmod(peak_seconds_ / 3600.0, 24.0);
    if (peak_hour < 0.0) {
      peak_hour += 24.0;
    }
    std::snprintf(buffer, sizeof(buffer), "diurnal:%g,%g,%g", base_, amplitude_, peak_hour);
  }
  return buffer;
}

}  // namespace harvest
