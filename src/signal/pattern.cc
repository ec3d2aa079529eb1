#include "src/signal/pattern.h"

namespace harvest {

const char* PatternName(UtilizationPattern pattern) {
  switch (pattern) {
    case UtilizationPattern::kPeriodic:
      return "periodic";
    case UtilizationPattern::kConstant:
      return "constant";
    case UtilizationPattern::kUnpredictable:
      return "unpredictable";
  }
  return "unknown";
}

UtilizationPattern PatternClassifier::Classify(const FrequencyProfile& profile) const {
  if (profile.stddev < options_.constant_stddev_threshold) {
    return UtilizationPattern::kConstant;
  }
  if (profile.dominant_share >= options_.periodic_dominant_share &&
      profile.dominant_cycles_per_day >= options_.periodic_min_cycles_per_day) {
    return UtilizationPattern::kPeriodic;
  }
  return UtilizationPattern::kUnpredictable;
}

}  // namespace harvest
