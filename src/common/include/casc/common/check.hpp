// Runtime precondition checking.  These are *always-on* checks (they guard
// API misuse in a library whose results feed published numbers), expressed as
// exceptions so tests can assert on them.
#pragma once

#include <stdexcept>
#include <string>

namespace casc::common {

/// Thrown when a CASC_CHECK precondition fails.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}
};

[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& msg);

}  // namespace casc::common

/// Verifies `cond`; throws casc::common::CheckFailure with location info and
/// the optional message otherwise.  Never compiled out.
#define CASC_CHECK(cond, ...)                                                    \
  do {                                                                           \
    if (!(cond)) {                                                               \
      ::casc::common::check_failed(#cond, __FILE__, __LINE__,                    \
                                   ::std::string{__VA_ARGS__});                  \
    }                                                                            \
  } while (false)
