// Levenshtein distance for "did you mean" suggestions in usage errors.
// Shared by the scenario-knob table, the scenario-name check, the fault-plan
// grammar, the trace-replay file resolver and detlint's suppression tags, so
// every unknown-name error suggests the closest valid spelling the same way
// (ClosestMatch).

#ifndef HARVEST_SRC_UTIL_EDIT_DISTANCE_H_
#define HARVEST_SRC_UTIL_EDIT_DISTANCE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

namespace harvest {

// Single-row dynamic program: O(|a| * |b|) time, O(|b|) space.
inline size_t EditDistance(std::string_view a, std::string_view b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) {
    row[j] = j;
  }
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t next = std::min({row[j] + 1, row[j - 1] + 1,
                              diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}

// True when `candidate` is close enough to `input` to be worth suggesting
// (at most half the input's length plus slack -- matches the knob table's
// historical behavior).
inline bool CloseEnoughToSuggest(std::string_view input, size_t distance) {
  return distance <= input.size() / 2 + 2;
}

// The spelling to suggest for an unknown `input`: the first of `candidates`
// at the smallest edit distance, or nothing when there are no candidates or
// that one fails CloseEnoughToSuggest. `name` maps a candidate to its
// spelling (a member pointer such as &Entry::name, or identity for a list of
// strings); the returned view points into `candidates`.
template <typename Candidates, typename Name = std::identity>
std::optional<std::string_view> ClosestMatch(std::string_view input,
                                             const Candidates& candidates, Name name = {}) {
  std::optional<std::string_view> closest;
  size_t best = 0;
  for (const auto& candidate : candidates) {
    const std::string_view spelling = std::invoke(name, candidate);
    const size_t distance = EditDistance(input, spelling);
    if (!closest || distance < best) {
      closest = spelling;
      best = distance;
    }
  }
  if (closest && !CloseEnoughToSuggest(input, best)) {
    return std::nullopt;
  }
  return closest;
}
// The result would point into a temporary.
template <typename Candidates, typename Name = std::identity>
std::optional<std::string_view> ClosestMatch(std::string_view, const Candidates&&,
                                             Name = {}) = delete;

}  // namespace harvest

#endif  // HARVEST_SRC_UTIL_EDIT_DISTANCE_H_
