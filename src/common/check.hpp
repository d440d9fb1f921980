// Always-on invariant checks.
//
// `assert` compiles out under NDEBUG, which every optimized build type
// defines. P4AUTH_CHECK stays in every build: an engine invariant whose
// violation would silently corrupt a run (an event scheduled into the
// past, a window that can never advance) stops the process with a
// file:line diagnostic instead.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace p4auth::detail {

[[noreturn, gnu::cold]] inline void check_failed(const char* file, int line, const char* expr,
                                                 const char* what) noexcept {
  std::fprintf(stderr, "%s:%d: check failed: %s (%s)\n", file, line, expr, what);
  std::abort();
}

}  // namespace p4auth::detail

#define P4AUTH_CHECK(cond, what)                                         \
  do {                                                                   \
    if (!(cond)) [[unlikely]]                                            \
      ::p4auth::detail::check_failed(__FILE__, __LINE__, #cond, (what)); \
  } while (false)
