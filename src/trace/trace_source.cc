#include "src/trace/trace_source.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "src/util/edit_distance.h"

namespace harvest {
namespace {

namespace fs = std::filesystem;

constexpr char kTraceExtension[] = ".trace";

// The repository root this binary was configured from, when the build system
// provides it. Committed reproducer traces live under the source tree, and
// tests run from the build tree -- without a fallback root a preset like
// replay_regression would only work from one working directory.
const char* SourceRootFallback() {
#ifdef HARVEST_SOURCE_DIR
  return HARVEST_SOURCE_DIR;
#else
  return nullptr;
#endif
}

}  // namespace

TraceSource TraceSource::Replay(std::string directory) {
  TraceSource source;
  source.directory_ = std::move(directory);
  return source;
}

std::string TraceSource::Provenance() const {
  return is_replay() ? "replay:" + directory_ : "synthetic";
}

std::string TraceSource::TraceFileName(const std::string& label) {
  return label + kTraceExtension;
}

std::vector<std::string> TraceSource::AvailableLabels(const std::string& resolved_dir,
                                                      std::string* list_error) {
  std::vector<std::string> labels;
  std::error_code ec;
  fs::directory_iterator it(resolved_dir, ec);
  if (ec) {
    if (list_error != nullptr) {
      *list_error = "cannot list '" + resolved_dir + "': " + ec.message();
    }
    return labels;
  }
  for (const auto& entry : it) {
    if (entry.is_regular_file() && entry.path().extension() == kTraceExtension) {
      labels.push_back(entry.path().stem().string());
    }
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}

bool TraceSource::ResolveDirectory(std::string* resolved, std::string* error) const {
  std::error_code ec;
  if (fs::is_directory(directory_, ec)) {
    *resolved = directory_;
    return true;
  }
  const char* root = SourceRootFallback();
  if (root != nullptr && fs::path(directory_).is_relative()) {
    fs::path under_root = fs::path(root) / directory_;
    if (fs::is_directory(under_root, ec)) {
      *resolved = under_root.string();
      return true;
    }
  }
  if (error != nullptr) {
    *error = "trace_dir '" + directory_ + "' is not a directory (looked in the working " +
             "directory" + (root != nullptr ? std::string(" and under ") + root : "") + ")";
  }
  return false;
}

bool TraceSource::ResolveTraceFile(const std::string& label, std::string* path,
                                   std::string* error) const {
  std::string dir;
  if (!ResolveDirectory(&dir, error)) {
    return false;
  }
  fs::path candidate = fs::path(dir) / TraceFileName(label);
  std::error_code ec;
  if (fs::is_regular_file(candidate, ec)) {
    *path = candidate.string();
    return true;
  }
  if (error != nullptr) {
    std::string message =
        "no trace for datacenter '" + label + "' in '" + dir + "' (expected " +
        TraceFileName(label) + ")";
    std::string list_error;
    const std::vector<std::string> labels = AvailableLabels(dir, &list_error);
    if (!list_error.empty()) {
      message += "; " + list_error;
    } else if (labels.empty()) {
      message += "; the directory has no .trace files -- capture some with "
                 "harvest_sim --dump-traces=DIR";
    } else {
      if (const auto closest = ClosestMatch(label, labels)) {
        message += "; did you mean '" + std::string(*closest) + "'?";
      }
      message += " (available:";
      for (const std::string& available : labels) {
        message += " " + available;
      }
      message += ")";
    }
    *error = std::move(message);
  }
  return false;
}

}  // namespace harvest
