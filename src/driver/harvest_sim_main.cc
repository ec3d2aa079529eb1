// harvest_sim: unified end-to-end driver over the whole library. Composes
// trace generation -> clustering (FFT / pattern / K-Means) -> Algorithm-1
// scheduling -> Algorithm-2 replica placement -> durability / availability
// experiments into one run selected by a registered scenario, and writes
// deterministic JSON results (same scenario + seed + scale => byte-identical
// output for any --threads value, suitable for diffing in CI). Wall-clock and
// memory telemetry goes to stderr, after the human summary.
//
//   ./build/harvest_sim --scenario=dc9_testbed --seed=42 --out=results.json
//   ./build/harvest_sim --scenario=fleet_sweep --set fleet_scale=0.2
//       --set replications=3,4 --threads=4 --out=-
//   ./build/harvest_sim --list-scenarios
//   ./build/harvest_sim --list-knobs
//
// The paper's figures (Figs 2-6, 13-16 and the placement ablation) are
// preset runs; DESIGN.md maps each figure to its command.

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "src/driver/pipeline.h"
#include "src/util/edit_distance.h"
#include "src/driver/registry.h"
#include "src/driver/scenario.h"
#include "src/fault/fault_plan.h"
#include "src/util/parse.h"

namespace {

void PrintUsage(std::FILE* stream) {
  std::fprintf(stream,
               "usage: harvest_sim --scenario=NAME [--seed=N] [--scale=F] [--threads=N]\n"
               "                   [--set KEY=VALUE]... [--dump-traces=DIR] [--out=PATH]\n"
               "       harvest_sim --list-scenarios | --list-names | --list-knobs | "
               "--list-faults\n"
               "\n"
               "  --scenario=NAME  registered scenario preset (see --list-scenarios)\n"
               "  --seed=N         RNG seed; same seed => identical JSON (default 42)\n"
               "  --scale=F        size multiplier on fleets/blocks/accesses (default 1.0)\n"
               "  --threads=N      worker threads for the per-datacenter loop and each\n"
               "                   datacenter's independent runs (default: hardware\n"
               "                   concurrency; output is byte-identical for any value)\n"
               "  --set KEY=VALUE  override one scenario knob (repeatable; see --list-knobs)\n"
               "  --dump-traces=DIR  export every datacenter's materialized fleet to\n"
               "                   DIR/<DC>.trace for exact replay via --set trace_dir=DIR\n"
               "  --out=PATH       JSON output path, '-' for stdout (default results.json)\n"
               "  --list-scenarios list registered scenarios with descriptions and exit\n"
               "  --list-names     list scenario names only, one per line (for scripts)\n"
               "  --list-knobs     list the knobs --set accepts and exit\n"
               "  --list-faults    list the fault-plan grammar --set fault_plan=... uses\n");
}

void PrintScenarios() {
  std::printf("available scenarios:\n");
  for (const auto& scenario : harvest::AllScenarios()) {
    std::printf("\n  %s\n    %s\n", scenario.name.c_str(), scenario.description.c_str());
  }
}

void PrintScenarioNames() {
  for (const auto& scenario : harvest::AllScenarios()) {
    std::printf("%s\n", scenario.name.c_str());
  }
}

void PrintKnobs() {
  std::printf("scenario knobs (--set KEY=VALUE, repeatable):\n\n");
  for (const auto& knob : harvest::ScenarioKnobs()) {
    std::printf("  %-30s %s\n  %30s   %s\n", knob.name, knob.syntax, "", knob.help);
  }
}

void PrintFaults() {
  std::printf(
      "fault-plan grammar (--set fault_plan=SPEC[+SPEC]...; times in seconds,\n"
      "racks taken modulo the fleet's rack count; \"none\" or \"\" = no faults):\n\n");
  for (const auto& entry : harvest::FaultGrammar()) {
    std::printf("  %-42s %s\n", entry.syntax, entry.help);
  }
  std::printf(
      "\nexample: --set fault_plan=rack_outage:7200,1,7200+telemetry_blackout:3600,7200\n");
}

// Writes `text` to `file` and closes it; false if any step failed (a full
// disk can surface at fwrite, fflush or fclose, depending on buffering).
bool WriteAndClose(std::FILE* file, const std::string& text) {
  const bool written = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  const bool flushed = std::fflush(file) == 0;
  const bool closed = std::fclose(file) == 0;
  return written && flushed && closed;
}

// The temporary result file of a run in flight. Every failing exit removes
// it, a fatal signal's too, so that an earlier result stays as it was.
std::string g_temp_path;

// Unlinks before restoring the default action: another thread that takes
// the same signal meanwhile runs this handler too, never the default.
extern "C" void RemoveTempAndDie(int sig) {
  ::unlink(g_temp_path.c_str());
  struct sigaction action {};
  action.sa_handler = SIG_DFL;
  ::sigaction(sig, &action, nullptr);
  ::kill(::getpid(), sig);
}

// Sets the temporary file, or clears it when `path` is empty. A signal the
// process inherited as ignored stays ignored.
void WatchTemp(const std::string& path) {
  g_temp_path = path;
  struct sigaction action {};
  action.sa_handler = path.empty() ? SIG_DFL : RemoveTempAndDie;
  for (int sig : {SIGABRT, SIGINT, SIGTERM}) {
    struct sigaction previous {};
    if (::sigaction(sig, &action, &previous) == 0 && previous.sa_handler == SIG_IGN) {
      ::sigaction(sig, &previous, nullptr);
    }
  }
}

void RemoveTemp() {
  if (!g_temp_path.empty()) {
    ::unlink(g_temp_path.c_str());
    WatchTemp("");
  }
}

// Opens --out as fopen's "wb" would; null if it cannot be written. A regular
// file, or a path that does not exist yet, is written to a temporary file
// beside it, which replaces `*target` once the whole result is written, so
// a failed run never truncates an earlier result. Anything else (/dev/null,
// /dev/full, a FIFO) has nothing to preserve and is opened directly.
std::FILE* OpenResult(const std::string& path, std::string* target) {
  namespace fs = std::filesystem;
  fs::path resolved = path;  // like fopen, write through symlinks
  std::error_code ec;
  for (int hops = 0; hops < 40 && fs::is_symlink(resolved, ec); ++hops) {
    const fs::path link = fs::read_symlink(resolved, ec);
    resolved = link.is_absolute() ? link : resolved.parent_path() / link;
  }
  struct stat st {};
  const bool exists = ::stat(resolved.c_str(), &st) == 0;
  if (exists ? ::access(resolved.c_str(), W_OK) != 0 : errno != ENOENT) {
    return nullptr;
  }
  if (exists && !S_ISREG(st.st_mode)) {
    return std::fopen(path.c_str(), "wb");
  }
  // fopen keeps an existing file's mode and creates a new one 0666 less the
  // umask; mkstemp would leave 0600.
  const mode_t mask = ::umask(0);
  ::umask(mask);
  const mode_t mode = exists ? (st.st_mode & 07777) : (0666 & ~mask);
  std::string temp =
      (resolved.parent_path() / ("." + resolved.filename().string() + ".XXXXXX")).string();
  const int fd = ::mkstemp(temp.data());
  if (fd < 0) {
    return nullptr;
  }
  WatchTemp(temp);
  std::FILE* file = ::fchmod(fd, mode) == 0 ? ::fdopen(fd, "wb") : nullptr;
  if (file == nullptr) {
    ::close(fd);
    RemoveTemp();
  }
  *target = resolved.string();
  return file;
}

// Accepts --key=value and --key value spellings; returns false on mismatch.
// A known flag with no value is a hard usage error rather than a fall-through
// to "unknown argument".
bool ParseOption(int argc, char** argv, int& i, const char* name, std::string& value) {
  const size_t name_len = std::strlen(name);
  if (std::strncmp(argv[i], name, name_len) != 0) {
    return false;
  }
  const char* rest = argv[i] + name_len;
  if (*rest == '=') {
    value = rest + 1;
    return true;
  }
  if (*rest != '\0') {
    return false;  // a different, longer flag name
  }
  if (i + 1 < argc) {
    value = argv[++i];
    return true;
  }
  std::fprintf(stderr, "harvest_sim: missing value for %s\n", name);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name;
  std::string out_path = "results.json";
  harvest::ScenarioRunOptions options;
  std::vector<std::string> overrides;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--list-scenarios") == 0) {
      PrintScenarios();
      return 0;
    }
    if (std::strcmp(argv[i], "--list-names") == 0) {
      PrintScenarioNames();
      return 0;
    }
    if (std::strcmp(argv[i], "--list-knobs") == 0) {
      PrintKnobs();
      return 0;
    }
    if (std::strcmp(argv[i], "--list-faults") == 0) {
      PrintFaults();
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(stdout);
      return 0;
    }
    if (ParseOption(argc, argv, i, "--scenario", value)) {
      scenario_name = value;
    } else if (ParseOption(argc, argv, i, "--seed", value)) {
      char* end = nullptr;
      errno = 0;
      options.seed = std::strtoull(value.c_str(), &end, 10);
      // strtoull alone would wrap "-1" to 2^64-1 and clamp > 2^64-1 to
      // ULLONG_MAX; require plain in-range digits.
      if (value.empty() || end != value.c_str() + value.size() || errno == ERANGE ||
          value.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr, "harvest_sim: --seed must be a non-negative integer, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseOption(argc, argv, i, "--scale", value)) {
      if (!harvest::ParseDouble(value, &options.scale, nullptr) || !(options.scale > 0.0)) {
        std::fprintf(stderr, "harvest_sim: --scale must be a positive number, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseOption(argc, argv, i, "--threads", value)) {
      int64_t threads = 0;
      if (!harvest::ParseInt64(value, &threads, nullptr) || threads < 1 || threads > 1024) {
        std::fprintf(stderr, "harvest_sim: --threads must be an integer in [1, 1024], got '%s'\n",
                     value.c_str());
        return 2;
      }
      options.threads = static_cast<int>(threads);
    } else if (ParseOption(argc, argv, i, "--set", value)) {
      overrides.push_back(value);
    } else if (ParseOption(argc, argv, i, "--dump-traces", value)) {
      if (value.empty()) {
        std::fprintf(stderr, "harvest_sim: --dump-traces needs a directory path\n");
        return 2;
      }
      options.dump_traces_dir = value;
    } else if (ParseOption(argc, argv, i, "--out", value)) {
      if (value.empty()) {
        std::fprintf(stderr, "harvest_sim: --out needs a file path, or '-' for stdout\n");
        return 2;
      }
      out_path = value;
    } else {
      std::fprintf(stderr, "harvest_sim: unknown argument '%s'\n\n", argv[i]);
      PrintUsage(stderr);
      return 2;
    }
  }

  if (scenario_name.empty()) {
    PrintUsage(stderr);
    return 2;
  }
  const harvest::ScenarioConfig* scenario = harvest::FindScenario(scenario_name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "harvest_sim: unknown scenario '%s'\n", scenario_name.c_str());
    if (const auto closest = harvest::ClosestMatch(scenario_name, harvest::AllScenarios(),
                                                   &harvest::ScenarioConfig::name)) {
      std::fprintf(stderr, "  (did you mean '%.*s'?)\n", static_cast<int>(closest->size()),
                   closest->data());
    }
    std::fprintf(stderr, "\n");
    PrintScenarios();
    return 2;
  }

  // Derive the run's config from the preset by applying --set overrides.
  harvest::ScenarioConfig config = *scenario;
  for (const std::string& override_text : overrides) {
    std::string key;
    std::string value;
    std::string error;
    if (!harvest::SplitOverride(override_text, &key, &value, &error)) {
      std::fprintf(stderr, "harvest_sim: %s\n", error.c_str());
      return 2;
    }
    // The two failure kinds are distinct statuses (a mistyped key vs a real
    // knob fed a bad value); the registry's messages already spell the kind
    // out, so no extra prefix is added here.
    if (harvest::ApplyScenarioOverrideStatus(config, key, value, &error) !=
        harvest::OverrideStatus::kOk) {
      std::fprintf(stderr, "harvest_sim: %s\n", error.c_str());
      return 2;
    }
  }
  options.overrides = overrides;
  std::string config_error = harvest::ValidateScenario(config, options.scale);
  if (!config_error.empty()) {
    std::fprintf(stderr, "harvest_sim: %s\n", config_error.c_str());
    return 2;
  }

  // Open the destination before the run, so a path that cannot be written
  // fails at once instead of after the whole simulation.
  const bool to_stdout = out_path == "-";
  std::string target;
  std::FILE* file = to_stdout ? stdout : OpenResult(out_path, &target);
  if (file == nullptr) {
    std::fprintf(stderr, "harvest_sim: cannot open '%s' for writing\n", out_path.c_str());
    return 1;
  }
  // Likewise the trace export directory (RunScenario would abort on it).
  if (!options.dump_traces_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.dump_traces_dir, ec);
    if (ec) {
      RemoveTemp();
      std::fprintf(stderr, "harvest_sim: cannot create trace export directory '%s': %s\n",
                   options.dump_traces_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

  std::fprintf(stderr, "harvest_sim: scenario=%s seed=%llu scale=%g overrides=%zu\n",
               config.name.c_str(), static_cast<unsigned long long>(options.seed),
               options.scale, overrides.size());
  harvest::ScenarioRunResult result = harvest::RunScenario(config, options);

  if (!WriteAndClose(file, result.json) ||
      (!g_temp_path.empty() && std::rename(g_temp_path.c_str(), target.c_str()) != 0)) {
    const std::string where = to_stdout ? "stdout" : "'" + out_path + "'";
    const std::string reason = std::generic_category().message(errno);
    RemoveTemp();
    std::fprintf(stderr, "harvest_sim: cannot write results to %s: %s\n", where.c_str(),
                 reason.c_str());
    return 1;
  }
  WatchTemp("");  // renamed into place

  const harvest::ScenarioSummary& s = result.summary;
  std::fprintf(stderr,
               "harvest_sim: %d datacenter(s), %zu servers, %zu tenants\n"
               "harvest_sim: jobs completed %lld; mean H improvement %.1f%%\n"
               "harvest_sim: worst lost blocks -- stock %.4f%%, history %.4f%%\n"
               "harvest_sim: wrote %zu bytes to %s\n",
               s.datacenters, s.servers, s.tenants, static_cast<long long>(s.jobs_completed),
               s.mean_scheduling_improvement_percent, s.worst_stock_lost_percent,
               s.worst_history_lost_percent, result.json.size(), out_path.c_str());
  std::fputs(harvest::FormatRunTelemetry(result).c_str(), stderr);
  return 0;
}
