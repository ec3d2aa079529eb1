// detlint -- the determinism linter.
//
// Every result this repository publishes rests on one invariant: rendered
// JSON is byte-identical across --threads x rm_shards x nn_shards (see
// DESIGN.md "Determinism and seed policy").  The dynamic check
// (tests/golden_check.sh, one layout matrix per golden) catches violations
// after they ship; detlint polices the *hazard class* that causes them at
// lint time, as named, suppressible rules over a token-level lex of the
// sources (no libclang -- the tool builds with nothing but the standard
// library, so it runs identically on every builder):
//
//   R1-unordered-iter  range-for / iterator loops over std::unordered_map /
//                      std::unordered_set (iteration order is
//                      implementation-defined and seed-hostile)
//   R2-wallclock       std::rand, std::random_device, time(nullptr),
//                      system_clock / steady_clock -- wall-clock or
//                      entropy-seeded values in result-affecting code
//   R3-raw-rng         std engines (mt19937, minstd_rand, ...) anywhere:
//                      all streams come from harvest::Rng via
//                      DerivedStreamSeed (src/util/rng.h)
//   R4-addr-order      pointer-keyed std::map / std::set / std::less --
//                      iteration order would be allocation-address order
//   R5-float-accum     double/float += accumulation inside a
//                      ParallelForIndex lambda without an exact-sum
//                      annotation (the int64 per-shard-partial idiom is
//                      the sanctioned path)
//   R6-raw-thread      std::thread / std::async / #pragma omp outside the
//                      deterministic executor (src/util/executor.cc)
//
// Findings print as  file:line: rule-id: message  followed by an indented
// fix hint, and any unsuppressed finding makes the tool exit nonzero.
// Benign sites are annotated in place:
//
//   // detlint: <tag>(<reason>)
//
// on the finding line or the line directly above it.  Tags are per rule
// (ordered-ok, wallclock-ok, rng-ok, addr-ok, exact-sum, thread-ok) and the
// reason string is mandatory -- an empty reason, an unknown tag, or an
// annotation that no longer suppresses anything is itself a finding
// (SUP-annotation), so suppressions cannot rot silently.

#ifndef HARVEST_TOOLS_DETLINT_DETLINT_H_
#define HARVEST_TOOLS_DETLINT_DETLINT_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace detlint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;     // "R1-unordered-iter", ..., "SUP-annotation"
  std::string message;  // one line, no trailing period policing
  std::string hint;     // the did-you-mean-style fix suggestion
};

struct Options {
  // The built-in allowlist pins the three sanctioned hazard sites:
  //   R2 src/driver/pipeline.cc   (stage timing; never rendered into results)
  //   R3 src/util/rng.h           (the one place engines are discussed)
  //   R6 src/util/executor.cc     (the deterministic executor itself)
  bool use_default_allowlist = true;
  // Extra (rule-id, path-suffix) pairs from --allow=RULE:SUFFIX.
  std::vector<std::pair<std::string, std::string>> extra_allow;
};

// Lints one translation unit given its contents. `path` is used for
// allowlist matching and finding locations only; no filesystem access.
std::vector<Finding> LintSource(const std::string& path, const std::string& contents,
                                const Options& options = {});

// Reads and lints `path`. Returns false (with *error set) on IO failure.
bool LintFile(const std::string& path, const Options& options,
              std::vector<Finding>* findings, std::string* error);

// Expands files and directories (recursively; .h/.hpp/.cc/.cpp/.cxx) into a
// sorted file list. Directories named "detlint_fixtures" are skipped unless
// a file inside one is named explicitly -- the fixture corpus exists to
// violate the rules on purpose.
bool CollectFiles(const std::vector<std::string>& paths, std::vector<std::string>* files,
                  std::string* error);

// "file:line: rule: message\n  hint: ..." -- the one rendering used by the
// CLI, CTest, and the wrapper script.
std::string FormatFinding(const Finding& finding);

// Full CLI: parses args (paths, --allow=, --no-default-allowlist,
// --list-rules), lints, prints findings to `out` and errors to `err`.
// Exit codes: 0 clean, 1 findings, 2 usage or IO error.
int RunDetlint(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace detlint

#endif  // HARVEST_TOOLS_DETLINT_DETLINT_H_
