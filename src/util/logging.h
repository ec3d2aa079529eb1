// Fatal invariant checks. HARVEST_CHECK(cond) << "context" always evaluates
// `cond`; when it is false it prints "[E file:line] Check failed: cond context"
// to stderr and aborts. Header-only and dependency-free so every layer can
// check without pulling in anything heavier.

#ifndef HARVEST_SRC_UTIL_LOGGING_H_
#define HARVEST_SRC_UTIL_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace harvest {

namespace internal {

// Collects one failed check's message; the destructor prints it and aborts.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line) {
    stream_ << "[E " << Basename(file) << ":" << line << "] ";
  }

  ~CheckFailure() {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
    std::abort();
  }

  std::ostringstream& stream() { return stream_; }

 private:
  static const char* Basename(const char* path) {
    const char* base = path;
    for (const char* p = path; *p != '\0'; ++p) {
      if (*p == '/') {
        base = p + 1;
      }
    }
    return base;
  }

  std::ostringstream stream_;
};

}  // namespace internal

#define HARVEST_CHECK(cond)                                           \
  if (!(cond))                                                        \
  ::harvest::internal::CheckFailure(__FILE__, __LINE__).stream()      \
      << "Check failed: " #cond " "

}  // namespace harvest

#endif  // HARVEST_SRC_UTIL_LOGGING_H_
