// Strict text parsing shared by every input surface: the `--set` knob table
// (src/driver/registry.cc), the fault-plan grammar (src/fault), the price
// curve grammar (src/power) and harvest_sim's numeric flags. One rule holds
// everywhere, so a value accepted on one surface is accepted on all:
//   - the whole field spells the value (trailing junk fails);
//   - a number is finite and in range: overflow and underflow (ERANGE, which
//     includes subnormal results) fail as "out of range", NaN, infinities and
//     non-numbers as "expected a finite number";
//   - a list has no empty item anywhere: a leading, inner or trailing
//     separator fails, and so does empty text.
//
// Every parser returns false with a message in *error (when non-null) and
// leaves *out untouched on failure.

#ifndef HARVEST_SRC_UTIL_PARSE_H_
#define HARVEST_SRC_UTIL_PARSE_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

namespace harvest {

// Stores `message` in *error (when non-null) and returns false, so a parser
// can `return Fail(error, ...)`.
inline bool Fail(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return false;
}

inline bool ParseDouble(std::string_view text, double* out, std::string* error) {
  const std::string buffer(text);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(buffer.c_str(), &end);
  const bool whole = !buffer.empty() && end == buffer.c_str() + buffer.size();
  if (whole && errno == ERANGE) {
    return Fail(error, "number out of range, got '" + buffer + "'");
  }
  if (!whole || !std::isfinite(value)) {
    return Fail(error, "expected a finite number, got '" + buffer + "'");
  }
  *out = value;
  return true;
}

inline bool ParseInt64(std::string_view text, int64_t* out, std::string* error) {
  const std::string buffer(text);
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(buffer.c_str(), &end, 10);
  const bool whole = !buffer.empty() && end == buffer.c_str() + buffer.size();
  if (whole && errno == ERANGE) {
    return Fail(error, "integer out of range, got '" + buffer + "'");
  }
  if (!whole) {
    return Fail(error, "expected an integer, got '" + buffer + "'");
  }
  *out = static_cast<int64_t>(value);
  return true;
}

// A number's short %g text, for messages and canonical echoes. Round trips
// need no more digits: both sides of any comparison go through parse ->
// canonical, so formatting precision cancels.
inline std::string FormatNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

// Splits `text` at every `separator`. The views point into `text`.
inline bool SplitList(std::string_view text, std::vector<std::string_view>* out,
                      std::string* error, char separator = ',') {
  std::vector<std::string_view> items;
  for (std::string_view rest = text;;) {
    const size_t pos = rest.find(separator);
    items.push_back(rest.substr(0, pos));
    if (items.back().empty()) {
      return Fail(error, "list '" + std::string(text) + "' has an empty item");
    }
    if (pos == std::string_view::npos) {
      break;
    }
    rest.remove_prefix(pos + 1);
  }
  *out = std::move(items);
  return true;
}

// A comma list of numbers, each under ParseDouble's rule.
inline bool ParseDoubleList(std::string_view text, std::vector<double>* out,
                            std::string* error) {
  std::vector<std::string_view> items;
  if (!SplitList(text, &items, error)) {
    return false;
  }
  std::vector<double> values(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (!ParseDouble(items[i], &values[i], error)) {
      return false;
    }
  }
  *out = std::move(values);
  return true;
}

}  // namespace harvest

#endif  // HARVEST_SRC_UTIL_PARSE_H_
