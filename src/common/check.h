// Always-on fatal invariant checks.
//
// The simulator's event-ordering invariants (events never fire in the past,
// the queue's live count never underflows) guard against exactly the silent
// state corruption a release build is most likely to hit in long runs — so
// they must not vanish under NDEBUG the way assert() does. RTVIRT_CHECK is
// active in every build type: on violation it formats a diagnostic with the
// failing expression and message, then aborts.
//
// The diagnostic is two lines — location and expression, then the message —
// formatted into one buffer and emitted with one write, right before the
// abort. The supervised sweep runner (src/sweep) relies on both: it finds
// the diagnostic whole in a crashed shard child's stderr and records the
// attempt as a check failure with that text as the reason.

#ifndef SRC_COMMON_CHECK_H_
#define SRC_COMMON_CHECK_H_

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace rtvirt {

// Opening of every diagnostic; the sweep runner searches a failed shard
// child's stderr for it.
inline constexpr char kCheckFailurePrefix[] = "rtvirt: fatal invariant violation at ";

namespace check_internal {

#if defined(__GNUC__)
__attribute__((format(printf, 4, 5)))
#endif
[[noreturn]] inline void
Fail(const char* file, int line, const char* expr, const char* fmt, ...) {
  char msg[1024];
  int n = std::snprintf(msg, sizeof(msg), "%s%s:%d: %s\n  ", kCheckFailurePrefix, file,
                        line, expr);
  if (n < 0) {
    n = 0;
  } else if (static_cast<size_t>(n) >= sizeof(msg)) {
    n = static_cast<int>(sizeof(msg)) - 1;
  }
  va_list args;
  va_start(args, fmt);
  int m = std::vsnprintf(msg + n, sizeof(msg) - static_cast<size_t>(n), fmt, args);
  va_end(args);
  if (m < 0) {
    m = 0;
  }
  size_t len = static_cast<size_t>(n) + static_cast<size_t>(m);
  if (len >= sizeof(msg) - 1) {
    len = sizeof(msg) - 2;
  }
  msg[len] = '\n';
  msg[len + 1] = '\0';
  ++len;
  std::fwrite(msg, 1, len, stderr);
  std::fflush(stderr);
  std::abort();
}

}  // namespace check_internal
}  // namespace rtvirt

#define RTVIRT_CHECK(cond, ...)                                                      \
  do {                                                                               \
    if (!(cond)) {                                                                   \
      ::rtvirt::check_internal::Fail(__FILE__, __LINE__, #cond, __VA_ARGS__);        \
    }                                                                                \
  } while (0)

#endif  // SRC_COMMON_CHECK_H_
