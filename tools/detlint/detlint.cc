#include "tools/detlint/detlint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>

#include "src/util/edit_distance.h"

namespace detlint {
namespace {

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

struct RuleInfo {
  const char* id;
  const char* tag;  // suppression tag: // detlint: <tag>(<reason>)
  const char* hint;
};

constexpr RuleInfo kRules[] = {
    {"R1-unordered-iter", "ordered-ok",
     "drain the keys into a sorted vector (or an ordered map) before iterating, or annotate "
     "'// detlint: ordered-ok(<reason>)' if the order provably cannot reach results"},
    {"R2-wallclock", "wallclock-ok",
     "derive values from the scenario seed via DerivedStreamSeed (src/util/rng.h); wall-clock "
     "belongs only in the run telemetry, which is never rendered (src/driver/pipeline.cc)"},
    {"R3-raw-rng", "rng-ok",
     "use harvest::Rng seeded through DerivedStreamSeed (src/util/rng.h) so every stream is "
     "(seed, dc, stage)-addressable and identical across standard libraries"},
    {"R4-addr-order", "addr-ok",
     "key on a stable id (ServerId, pooled index, name) instead of an address, or use an "
     "unordered lookup-only map; annotate '// detlint: addr-ok(<reason>)' if never iterated"},
    {"R5-float-accum", "exact-sum",
     "accumulate in int64 fixed point, whose sums are exact under any work split (the RM's "
     "per-class available-core sums), or annotate '// detlint: exact-sum(<reason>)' if the sum "
     "cannot reach results"},
    {"R6-raw-thread", "thread-ok",
     "route parallelism through harvest::ParallelForIndex (src/util/executor.h), which pins "
     "the deterministic work-handout contract"},
};

constexpr char kSupRule[] = "SUP-annotation";
constexpr char kSupHint[] =
    "the grammar is '// detlint: <tag>(<reason>)' with a non-empty reason, on the finding "
    "line or the line directly above it";

const RuleInfo* RuleById(std::string_view id) {
  for (const RuleInfo& rule : kRules) {
    if (id == rule.id) {
      return &rule;
    }
  }
  return nullptr;
}

const RuleInfo* RuleByTag(std::string_view tag) {
  for (const RuleInfo& rule : kRules) {
    if (tag == rule.tag) {
      return &rule;
    }
  }
  return nullptr;
}

// Built-in allowlist: the three sanctioned hazard sites (see detlint.h).
struct AllowEntry {
  const char* rule;
  const char* path_suffix;
};
constexpr AllowEntry kDefaultAllowlist[] = {
    {"R2-wallclock", "src/driver/pipeline.cc"},
    {"R3-raw-rng", "src/util/rng.h"},
    {"R6-raw-thread", "src/util/executor.cc"},
};

bool HasSuffix(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct Token {
  enum Kind { kIdent, kNumber, kString, kChar, kPunct, kPpLine };
  Kind kind;
  std::string text;
  int line;
};

struct Annotation {
  int line;            // line the comment sits on
  std::string tag;     // "ordered-ok", ...
  std::string reason;  // may be empty -> finding
  bool used = false;
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<Annotation> annotations;
};

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Parses "detlint: tag(reason)" out of a line comment body; returns false
// when the comment is not a detlint annotation at all.
bool ParseAnnotation(std::string_view body, int line, Annotation* out) {
  size_t i = 0;
  while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i]))) ++i;
  constexpr std::string_view kPrefix = "detlint:";
  if (body.substr(i, kPrefix.size()) != kPrefix) {
    return false;
  }
  i += kPrefix.size();
  while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i]))) ++i;
  size_t tag_start = i;
  while (i < body.size() && (IsIdentChar(body[i]) || body[i] == '-')) ++i;
  out->line = line;
  out->tag = std::string(body.substr(tag_start, i - tag_start));
  out->reason.clear();
  while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i]))) ++i;
  if (i < body.size() && body[i] == '(') {
    size_t close = body.rfind(')');
    if (close != std::string_view::npos && close > i) {
      std::string_view reason = body.substr(i + 1, close - i - 1);
      while (!reason.empty() && std::isspace(static_cast<unsigned char>(reason.front()))) {
        reason.remove_prefix(1);
      }
      while (!reason.empty() && std::isspace(static_cast<unsigned char>(reason.back()))) {
        reason.remove_suffix(1);
      }
      out->reason = std::string(reason);
    }
  }
  return true;
}

LexedFile Lex(const std::string& src) {
  LexedFile out;
  size_t i = 0;
  int line = 1;
  const size_t n = src.size();
  auto at_line_start = [&](size_t pos) {
    while (pos > 0) {
      char c = src[pos - 1];
      if (c == '\n') return true;
      if (c != ' ' && c != '\t') return false;
      --pos;
    }
    return true;
  };
  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment: the annotation grammar lives here.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      Annotation note;
      if (ParseAnnotation(std::string_view(src).substr(i + 2, end - i - 2), line, &note)) {
        out.annotations.push_back(std::move(note));
      }
      i = end;
      continue;
    }
    // Block comment (no annotations; the grammar is line-comment-only so a
    // suppression is always visibly attached to its site).
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
      continue;
    }
    // Preprocessor line (with continuations) -> one kPpLine token. Only
    // "#pragma omp" is ever inspected; includes and macros are opaque.
    if (c == '#' && at_line_start(i)) {
      int start_line = line;
      std::string text;
      while (i < n) {
        char p = src[i];
        if (p == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          text.push_back(' ');
          continue;
        }
        if (p == '\n') break;
        text.push_back(p);
        ++i;
      }
      out.tokens.push_back({Token::kPpLine, std::move(text), start_line});
      continue;
    }
    // Raw string literal: R"delim( ... )delim"
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      size_t delim_start = i + 2;
      size_t paren = src.find('(', delim_start);
      if (paren != std::string::npos) {
        std::string close = ")" + src.substr(delim_start, paren - delim_start) + "\"";
        size_t end = src.find(close, paren + 1);
        if (end == std::string::npos) end = n;
        for (size_t k = i; k < std::min(n, end + close.size()); ++k) {
          if (src[k] == '\n') ++line;
        }
        out.tokens.push_back({Token::kString, "", line});
        i = std::min(n, end + close.size());
        continue;
      }
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      int start_line = line;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          ++i;
        } else if (src[i] == '\n') {
          ++line;
        }
        ++i;
      }
      ++i;  // closing quote
      out.tokens.push_back(
          {quote == '"' ? Token::kString : Token::kChar, "", start_line});
      continue;
    }
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(src[i])) ++i;
      out.tokens.push_back({Token::kIdent, src.substr(start, i - start), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      size_t start = i;
      while (i < n) {
        char d = src[i];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '.' || d == '\'') {
          ++i;
        } else if ((d == '+' || d == '-') && i > start &&
                   (src[i - 1] == 'e' || src[i - 1] == 'E' || src[i - 1] == 'p' ||
                    src[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      out.tokens.push_back({Token::kNumber, src.substr(start, i - start), line});
      continue;
    }
    // Punctuation. Compose only the few digraphs the rules inspect; '>' is
    // deliberately left single so template-depth matching stays simple.
    static constexpr std::string_view kDigraphs[] = {"::", "+=", "-=", "->"};
    std::string punct(1, c);
    for (std::string_view d : kDigraphs) {
      if (i + 1 < n && d[0] == c && d[1] == src[i + 1]) {
        punct = std::string(d);
        break;
      }
    }
    i += punct.size();
    out.tokens.push_back({Token::kPunct, std::move(punct), line});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

bool Is(const std::vector<Token>& t, size_t i, Token::Kind kind, std::string_view text) {
  return i < t.size() && t[i].kind == kind && t[i].text == text;
}
bool IsPunct(const std::vector<Token>& t, size_t i, std::string_view text) {
  return Is(t, i, Token::kPunct, text);
}
bool IsIdent(const std::vector<Token>& t, size_t i, std::string_view text) {
  return Is(t, i, Token::kIdent, text);
}

// Token index after a balanced <...> starting at `i` (which must be '<');
// returns `i` unchanged when the run never closes (not a template).
size_t SkipTemplateArgs(const std::vector<Token>& t, size_t i) {
  if (!IsPunct(t, i, "<")) {
    return i;
  }
  int depth = 0;
  for (size_t j = i; j < t.size() && j < i + 512; ++j) {
    if (t[j].kind != Token::kPunct) continue;
    if (t[j].text == "<") ++depth;
    if (t[j].text == ">") {
      --depth;
      if (depth == 0) return j + 1;
    }
    if (t[j].text == ";") break;  // statement ended: was a comparison
  }
  return i;
}

// Token index after a balanced pair starting at `i` (e.g. '(' ... ')').
size_t SkipBalanced(const std::vector<Token>& t, size_t i, std::string_view open,
                    std::string_view close) {
  int depth = 0;
  for (size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != Token::kPunct) continue;
    if (t[j].text == open) ++depth;
    if (t[j].text == close) {
      --depth;
      if (depth == 0) return j + 1;
    }
  }
  return t.size();
}

bool PrecededByStdScope(const std::vector<Token>& t, size_t i) {
  return i >= 2 && IsPunct(t, i - 1, "::") && IsIdent(t, i - 2, "std");
}

bool IsMemberAccess(const std::vector<Token>& t, size_t i) {
  return i >= 1 && (IsPunct(t, i - 1, ".") || IsPunct(t, i - 1, "->"));
}

constexpr std::string_view kUnorderedContainers[] = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
constexpr std::string_view kStdEngines[] = {
    "mt19937",   "mt19937_64", "minstd_rand", "minstd_rand0", "default_random_engine",
    "ranlux24",  "ranlux48",   "knuth_b",     "linear_congruential_engine",
    "mersenne_twister_engine"};

bool IsAny(std::string_view text, const auto& list) {
  for (std::string_view entry : list) {
    if (text == entry) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Declaration collection (single file-local pass, deliberately lexical)
// ---------------------------------------------------------------------------

struct Declarations {
  std::set<std::string> unordered_vars;   // variables of unordered type
  std::set<std::string> unordered_types;  // using-aliases of unordered types
  std::set<std::string> float_vars;       // double/float (incl. containers of)
};

// After a type run ending at token `i`, record the declared identifier if the
// next tokens look like "name =", "name;", "name,", "name)", "name{", "name[".
bool DeclaredName(const std::vector<Token>& t, size_t i, std::string* name) {
  // Skip cv-qualifiers / reference / pointer decorations.
  while (i < t.size() &&
         (IsIdent(t, i, "const") || IsPunct(t, i, "&") || IsPunct(t, i, "*"))) {
    ++i;
  }
  if (i >= t.size() || t[i].kind != Token::kIdent) {
    return false;
  }
  // "(" admits constructor-paren declarations (vector<double> v(4, 0.0)) at
  // the cost of also recording function names, which can never be assigned.
  static constexpr std::string_view kTerminators[] = {"=", ";", ",", ")", "{", "[", ":", "("};
  if (i + 1 < t.size() && t[i + 1].kind == Token::kPunct &&
      IsAny(t[i + 1].text, kTerminators)) {
    *name = t[i].text;
    return true;
  }
  return false;
}

Declarations CollectDeclarations(const std::vector<Token>& t) {
  Declarations decls;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::kIdent) continue;
    const std::string& text = t[i].text;

    // using Alias = std::unordered_map<...>;
    if (text == "using" && i + 2 < t.size() && t[i + 1].kind == Token::kIdent &&
        IsPunct(t, i + 2, "=")) {
      for (size_t j = i + 3; j < t.size() && !IsPunct(t, j, ";"); ++j) {
        if (t[j].kind == Token::kIdent && IsAny(t[j].text, kUnorderedContainers)) {
          decls.unordered_types.insert(t[i + 1].text);
          break;
        }
      }
      continue;
    }

    // std::unordered_map<...> name   /   Alias name
    if (IsAny(text, kUnorderedContainers) || decls.unordered_types.count(text) > 0) {
      size_t after = SkipTemplateArgs(t, i + 1);
      std::string name;
      if (DeclaredName(t, after, &name)) {
        decls.unordered_vars.insert(name);
      }
      continue;
    }

    // double name / float name  -- and container<...double...> name.
    if (text == "double" || text == "float") {
      std::string name;
      if (DeclaredName(t, i + 1, &name)) {
        decls.float_vars.insert(name);
      }
      continue;
    }
    if (IsPunct(t, i + 1, "<")) {
      size_t after = SkipTemplateArgs(t, i + 1);
      if (after == i + 1) continue;
      bool has_float = false;
      for (size_t j = i + 2; j + 1 < after; ++j) {
        if (t[j].kind == Token::kIdent && (t[j].text == "double" || t[j].text == "float")) {
          has_float = true;
          break;
        }
      }
      if (!has_float) continue;
      std::string name;
      if (DeclaredName(t, after, &name)) {
        decls.float_vars.insert(name);
      }
    }
  }
  return decls;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

class Linter {
 public:
  Linter(const std::string& path, const LexedFile& lexed, const Options& options)
      : path_(path), tokens_(lexed.tokens), annotations_(lexed.annotations),
        options_(options), decls_(CollectDeclarations(lexed.tokens)) {}

  std::vector<Finding> Run() {
    RuleUnorderedIter();
    RuleWallClock();
    RuleRawRng();
    RuleAddrOrder();
    RuleFloatAccum();
    RuleRawThread();
    ResolveSuppressions();
    std::stable_sort(findings_.begin(), findings_.end(),
                     [](const Finding& a, const Finding& b) { return a.line < b.line; });
    return std::move(findings_);
  }

 private:
  bool Allowed(std::string_view rule) const {
    if (options_.use_default_allowlist) {
      for (const AllowEntry& entry : kDefaultAllowlist) {
        if (rule == entry.rule && HasSuffix(path_, entry.path_suffix)) return true;
      }
    }
    for (const auto& [allow_rule, suffix] : options_.extra_allow) {
      if (rule == allow_rule && HasSuffix(path_, suffix)) return true;
    }
    return false;
  }

  void Report(std::string_view rule, int line, std::string message) {
    if (Allowed(rule)) return;
    const RuleInfo* info = RuleById(rule);
    findings_.push_back(
        {path_, line, std::string(rule), std::move(message), info ? info->hint : ""});
  }

  // R1: range-for / .begin() iteration over unordered containers.
  void RuleUnorderedIter() {
    const std::vector<Token>& t = tokens_;
    for (size_t i = 0; i < t.size(); ++i) {
      if (IsIdent(t, i, "for") && IsPunct(t, i + 1, "(")) {
        size_t close = SkipBalanced(t, i + 1, "(", ")");
        // Find the range-for ':' at paren depth 1 (skip any "::").
        int depth = 0;
        size_t colon = 0;
        for (size_t j = i + 1; j + 1 < close; ++j) {
          if (t[j].kind != Token::kPunct) continue;
          if (t[j].text == "(" || t[j].text == "[" || t[j].text == "{") ++depth;
          if (t[j].text == ")" || t[j].text == "]" || t[j].text == "}") --depth;
          if (t[j].text == ";") break;  // classic for loop
          if (t[j].text == ":" && depth == 1) {
            colon = j;
            break;
          }
        }
        if (colon == 0) continue;
        for (size_t j = colon + 1; j + 1 < close; ++j) {
          if (t[j].kind == Token::kIdent &&
              (decls_.unordered_vars.count(t[j].text) > 0 ||
               IsAny(t[j].text, kUnorderedContainers))) {
            Report("R1-unordered-iter", t[i].line,
                   "range-for over unordered container '" + t[j].text +
                       "': iteration order is implementation-defined and can leak into results");
            break;
          }
        }
        continue;
      }
      // umap.begin() / umap.cbegin(): iterator walk outside a range-for.
      if (t[i].kind == Token::kIdent && decls_.unordered_vars.count(t[i].text) > 0 &&
          IsPunct(t, i + 1, ".") && i + 2 < t.size() &&
          (t[i + 2].text == "begin" || t[i + 2].text == "cbegin") &&
          IsPunct(t, i + 3, "(")) {
        Report("R1-unordered-iter", t[i].line,
               "iterator over unordered container '" + t[i].text +
                   "': traversal order is implementation-defined");
      }
    }
  }

  // R2: wall-clock / entropy sources.
  void RuleWallClock() {
    const std::vector<Token>& t = tokens_;
    static constexpr std::string_view kClockIdents[] = {
        "system_clock", "steady_clock", "high_resolution_clock", "random_device",
        "gettimeofday", "clock_gettime", "srand"};
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::kIdent) continue;
      const std::string& text = t[i].text;
      if (IsAny(text, kClockIdents)) {
        Report("R2-wallclock", t[i].line,
               "'" + text + "' is a wall-clock / entropy source: results must be a pure "
               "function of the scenario seed");
        continue;
      }
      if (text == "rand" && IsPunct(t, i + 1, "(") && !IsMemberAccess(t, i) &&
          !(i >= 1 && IsPunct(t, i - 1, "::") && !PrecededByStdScope(t, i))) {
        Report("R2-wallclock", t[i].line,
               "'rand()' draws from hidden global state: results must come from the "
               "scenario seed");
        continue;
      }
      if (text == "time" && IsPunct(t, i + 1, "(") && !IsMemberAccess(t, i) &&
          i + 2 < t.size() &&
          (IsPunct(t, i + 2, ")") || IsIdent(t, i + 2, "nullptr") ||
           IsIdent(t, i + 2, "NULL") || Is(t, i + 2, Token::kNumber, "0"))) {
        Report("R2-wallclock", t[i].line,
               "'time(...)' reads the wall clock: results must be a pure function of the "
               "scenario seed");
      }
    }
  }

  // R3: standard-library random engines anywhere outside src/util/rng.h.
  void RuleRawRng() {
    for (size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i].kind == Token::kIdent && IsAny(tokens_[i].text, kStdEngines)) {
        Report("R3-raw-rng", tokens_[i].line,
               "raw std engine '" + tokens_[i].text +
                   "': stream derivation must go through DerivedStreamSeed");
      }
    }
  }

  // R4: pointer-keyed ordered containers / comparators.
  void RuleAddrOrder() {
    const std::vector<Token>& t = tokens_;
    static constexpr std::string_view kOrdered[] = {"map", "set", "multimap", "multiset",
                                                    "less", "greater"};
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::kIdent || !IsAny(t[i].text, kOrdered)) continue;
      if (!PrecededByStdScope(t, i) || !IsPunct(t, i + 1, "<")) continue;
      // First template argument: tokens up to the first ',' or the matching
      // '>' at depth 1. Pointer-keyed iff its last token is '*'.
      int depth = 0;
      size_t last = 0;
      bool done = false;
      for (size_t j = i + 1; j < t.size() && !done; ++j) {
        if (t[j].kind != Token::kPunct) {
          last = j;
          continue;
        }
        if (t[j].text == "<" || t[j].text == "(") ++depth;
        if (t[j].text == ")") --depth;
        if (t[j].text == ">") {
          --depth;
          if (depth == 0) done = true;
        }
        if (t[j].text == "," && depth == 1) done = true;
        if (t[j].text == ";") break;
        if (!done) last = j;
      }
      if (done && last > i && IsPunct(t, last, "*")) {
        Report("R4-addr-order", t[i].line,
               "pointer-keyed ordered 'std::" + t[i].text +
                   "': iteration/comparison order is allocation-address order, which varies "
                   "run to run");
      }
    }
  }

  // R5: float accumulation inside ParallelForIndex lambdas.
  void RuleFloatAccum() {
    const std::vector<Token>& t = tokens_;
    for (size_t i = 0; i < t.size(); ++i) {
      if (!IsIdent(t, i, "ParallelForIndex") || !IsPunct(t, i + 1, "(")) continue;
      size_t close = SkipBalanced(t, i + 1, "(", ")");
      for (size_t j = i + 1; j + 1 < close; ++j) {
        if (t[j].kind != Token::kPunct || (t[j].text != "+=" && t[j].text != "-=")) continue;
        // Walk back over an optional subscript to the accumulator identifier.
        size_t k = j;
        if (k >= 1 && IsPunct(t, k - 1, "]")) {
          int depth = 0;
          while (k > 0) {
            --k;
            if (IsPunct(t, k, "]")) ++depth;
            if (IsPunct(t, k, "[")) {
              --depth;
              if (depth == 0) break;
            }
          }
        }
        if (k >= 1 && t[k - 1].kind == Token::kIdent &&
            decls_.float_vars.count(t[k - 1].text) > 0) {
          Report("R5-float-accum", t[j].line,
                 "floating-point accumulation into '" + t[k - 1].text +
                     "' inside a ParallelForIndex lambda: float addition is not associative, "
                     "so the work split changes the sum");
        }
      }
      i = close;
    }
  }

  // R6: raw threading primitives outside the deterministic executor.
  void RuleRawThread() {
    const std::vector<Token>& t = tokens_;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind == Token::kPpLine) {
        std::istringstream pp(t[i].text.substr(1));
        std::string word1, word2;
        pp >> word1 >> word2;
        if (word1 == "pragma" && word2 == "omp") {
          Report("R6-raw-thread", t[i].line,
                 "'#pragma omp': OpenMP scheduling is outside the deterministic executor's "
                 "work-handout contract");
        }
        continue;
      }
      if (t[i].kind != Token::kIdent) continue;
      if ((t[i].text == "thread" || t[i].text == "jthread" || t[i].text == "async") &&
          PrecededByStdScope(t, i)) {
        Report("R6-raw-thread", t[i].line,
               "raw 'std::" + t[i].text +
                   "': all parallelism goes through ParallelForIndex so work handout stays "
                   "deterministic");
        continue;
      }
      if (t[i].text == "pthread_create") {
        Report("R6-raw-thread", t[i].line,
               "'pthread_create': all parallelism goes through ParallelForIndex");
      }
    }
  }

  // Matches findings against annotations: an annotation on line L covers
  // findings on L and L+1. Bad or unused annotations become SUP findings.
  void ResolveSuppressions() {
    std::vector<Annotation> notes = annotations_;
    std::vector<Finding> kept;
    for (Finding& finding : findings_) {
      const RuleInfo* info = RuleById(finding.rule);
      Annotation* match = nullptr;
      for (Annotation& note : notes) {
        if ((note.line == finding.line || note.line + 1 == finding.line) && info != nullptr &&
            note.tag == info->tag) {
          match = &note;
          break;
        }
      }
      if (match == nullptr) {
        kept.push_back(std::move(finding));
        continue;
      }
      match->used = true;
      if (match->reason.empty()) {
        kept.push_back({path_, match->line, kSupRule,
                        "suppression '" + match->tag +
                            "' is missing its reason string: every suppression must say why "
                            "the order cannot reach results",
                        kSupHint});
      }
      // A matched annotation with a reason silences the finding.
    }
    for (Annotation& note : notes) {
      if (note.used) continue;
      const RuleInfo* info = RuleByTag(note.tag);
      if (info == nullptr) {
        std::string message = "unknown suppression tag '" + note.tag + "'";
        if (const auto closest = harvest::ClosestMatch(note.tag, kRules, &RuleInfo::tag)) {
          message += "; did you mean '" + std::string(*closest) + "'?";
        }
        kept.push_back({path_, note.line, kSupRule, std::move(message), kSupHint});
      } else {
        kept.push_back({path_, note.line, kSupRule,
                        "unused suppression '" + note.tag +
                            "': no " + std::string(info->id) +
                            " finding on this or the next line -- delete the annotation so "
                            "suppressions cannot rot",
                        kSupHint});
      }
    }
    findings_ = std::move(kept);
  }

  const std::string& path_;
  const std::vector<Token>& tokens_;
  const std::vector<Annotation>& annotations_;
  const Options& options_;
  Declarations decls_;
  std::vector<Finding> findings_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::vector<Finding> LintSource(const std::string& path, const std::string& contents,
                                const Options& options) {
  LexedFile lexed = Lex(contents);
  return Linter(path, lexed, options).Run();
}

bool LintFile(const std::string& path, const Options& options, std::vector<Finding>* findings,
              std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "detlint: cannot read '" + path + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::vector<Finding> found = LintSource(path, buffer.str(), options);
  findings->insert(findings->end(), found.begin(), found.end());
  return true;
}

bool CollectFiles(const std::vector<std::string>& paths, std::vector<std::string>* files,
                  std::string* error) {
  namespace fs = std::filesystem;
  static constexpr std::string_view kExtensions[] = {".h", ".hpp", ".cc", ".cpp", ".cxx"};
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        // The fixture corpus violates the rules on purpose; it is linted
        // only when a fixture file is named explicitly (as the tests do).
        if (it->is_directory() && it->path().filename() == "detlint_fixtures") {
          it.disable_recursion_pending();
          continue;
        }
        if (!it->is_regular_file()) continue;
        if (IsAny(std::string_view(it->path().extension().string()), kExtensions)) {
          files->push_back(it->path().string());
        }
      }
      if (ec) {
        if (error != nullptr) *error = "detlint: cannot walk '" + path + "': " + ec.message();
        return false;
      }
    } else if (fs::is_regular_file(path, ec)) {
      files->push_back(path);
    } else {
      if (error != nullptr) *error = "detlint: no such file or directory: '" + path + "'";
      return false;
    }
  }
  std::sort(files->begin(), files->end());
  files->erase(std::unique(files->begin(), files->end()), files->end());
  return true;
}

std::string FormatFinding(const Finding& finding) {
  std::string out =
      finding.file + ":" + std::to_string(finding.line) + ": " + finding.rule + ": " +
      finding.message;
  if (!finding.hint.empty()) {
    out += "\n  hint: " + finding.hint;
  }
  return out;
}

int RunDetlint(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  Options options;
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    if (arg == "--list-rules") {
      for (const RuleInfo& rule : kRules) {
        out << rule.id << "  (suppress: // detlint: " << rule.tag << "(<reason>))\n";
      }
      return 0;
    }
    if (arg == "--no-default-allowlist") {
      options.use_default_allowlist = false;
      continue;
    }
    if (arg.rfind("--allow=", 0) == 0) {
      std::string spec = arg.substr(8);
      size_t colon = spec.find(':');
      if (colon == std::string::npos || RuleById(spec.substr(0, colon)) == nullptr) {
        err << "detlint: bad --allow spec '" << spec << "' (want RULE-ID:path-suffix)\n";
        return 2;
      }
      options.extra_allow.emplace_back(spec.substr(0, colon), spec.substr(colon + 1));
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      err << "detlint: unknown flag '" << arg << "'\n";
      err << "usage: detlint [--list-rules] [--no-default-allowlist] "
             "[--allow=RULE-ID:path-suffix]... <file-or-dir>...\n";
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.empty()) {
    err << "usage: detlint [--list-rules] [--no-default-allowlist] "
           "[--allow=RULE-ID:path-suffix]... <file-or-dir>...\n";
    return 2;
  }
  std::vector<std::string> files;
  std::string error;
  if (!CollectFiles(paths, &files, &error)) {
    err << error << "\n";
    return 2;
  }
  std::vector<Finding> findings;
  for (const std::string& file : files) {
    if (!LintFile(file, options, &findings, &error)) {
      err << error << "\n";
      return 2;
    }
  }
  for (const Finding& finding : findings) {
    out << FormatFinding(finding) << "\n";
  }
  if (findings.empty()) {
    out << "detlint: clean (" << files.size() << " files)\n";
    return 0;
  }
  out << "detlint: " << findings.size() << " finding(s) in " << files.size() << " files\n";
  return 1;
}

}  // namespace detlint
