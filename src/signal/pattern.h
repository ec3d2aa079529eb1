// Classification of primary tenants into the three behavior patterns the
// paper identifies in §3.2: periodic, constant, and unpredictable.

#ifndef HARVEST_SRC_SIGNAL_PATTERN_H_
#define HARVEST_SRC_SIGNAL_PATTERN_H_

#include <string>

#include "src/signal/spectrum.h"

namespace harvest {

enum class UtilizationPattern {
  kPeriodic = 0,
  kConstant = 1,
  kUnpredictable = 2,
};

inline constexpr int kNumPatterns = 3;

const char* PatternName(UtilizationPattern pattern);

// Tunable thresholds for the rule-based classifier. Defaults are calibrated
// on the synthetic generators (tests assert the calibration).
struct PatternClassifierOptions {
  // A series whose stddev is below this is "constant" regardless of spectrum.
  double constant_stddev_threshold = 0.05;
  // Minimum windowed dominant share of non-DC energy for "periodic".
  double periodic_dominant_share = 0.05;
  // Periodicity that matters for scheduling is diurnal or faster. Slower
  // dominant frequencies mean rare events, the "unpredictable" signature of
  // Fig 1d (signal strength decreasing with frequency).
  double periodic_min_cycles_per_day = 0.75;
};

// Rule-based classifier mirroring the paper's reading of FFT output:
//   - near-flat series => constant;
//   - a strong spectral line at a diurnal-or-faster frequency (e.g., the
//     31-cycles-per-month line of Fig 1b) => periodic;
//   - energy concentrated at rare low-frequency events with no such line
//     (Fig 1d) => unpredictable.
class PatternClassifier {
 public:
  explicit PatternClassifier(PatternClassifierOptions options = {}) : options_(options) {}

  UtilizationPattern Classify(const FrequencyProfile& profile) const;

 private:
  PatternClassifierOptions options_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_SIGNAL_PATTERN_H_
