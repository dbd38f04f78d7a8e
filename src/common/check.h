#ifndef PPFR_COMMON_CHECK_H_
#define PPFR_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

// Abort-on-violation precondition macros, in the spirit of glog's CHECK.
// The library does not use exceptions; programming errors terminate with a
// message pinpointing the failed condition.

namespace ppfr::internal {

[[noreturn]] inline void CheckFail(const char* file, int line, const char* cond,
                                   const std::string& msg) {
  std::fprintf(stderr, "CHECK failed at %s:%d: %s%s%s\n", file, line, cond,
               msg.empty() ? "" : " — ", msg.c_str());
  std::abort();
}

// Builds the optional streamed message of a failed CHECK.
class CheckMessage {
 public:
  CheckMessage(const char* file, int line, const char* cond)
      : file_(file), line_(line), cond_(cond) {}
  [[noreturn]] ~CheckMessage() { CheckFail(file_, line_, cond_, stream_.str()); }

  template <typename T>
  CheckMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* cond_;
  std::ostringstream stream_;
};

// Swallows the streamed CheckMessage so PPFR_CHECK is one void expression
// (glog's Voidify): `&` binds looser than `<<` and tighter than `?:`, so the
// whole message chain is built before the ternary sees it. Unlike a bare
// if/else, the expression cannot capture a following `else`.
struct Voidify {
  void operator&(const CheckMessage&) {}
};

}  // namespace ppfr::internal

#define PPFR_CHECK(cond) \
  (cond) ? (void)0       \
         : ::ppfr::internal::Voidify() & ::ppfr::internal::CheckMessage(__FILE__, __LINE__, #cond)

#define PPFR_CHECK_OP(a, b, op) PPFR_CHECK((a)op(b)) << "(" << (a) << " vs " << (b) << ") "

#define PPFR_CHECK_EQ(a, b) PPFR_CHECK_OP(a, b, ==)
#define PPFR_CHECK_NE(a, b) PPFR_CHECK_OP(a, b, !=)
#define PPFR_CHECK_LT(a, b) PPFR_CHECK_OP(a, b, <)
#define PPFR_CHECK_LE(a, b) PPFR_CHECK_OP(a, b, <=)
#define PPFR_CHECK_GT(a, b) PPFR_CHECK_OP(a, b, >)
#define PPFR_CHECK_GE(a, b) PPFR_CHECK_OP(a, b, >=)

// Debug-only variants for hot-path preconditions (element access, kernel
// inner loops). Active unless NDEBUG; in release builds they compile to
// nothing while still type-checking the condition and any streamed message.
#ifndef NDEBUG
#define PPFR_DCHECK(cond) PPFR_CHECK(cond)
#define PPFR_DCHECK_OP(a, b, op) PPFR_CHECK_OP(a, b, op)
#else
#define PPFR_DCHECK(cond) \
  while (false) PPFR_CHECK(cond)
#define PPFR_DCHECK_OP(a, b, op) \
  while (false) PPFR_CHECK_OP(a, b, op)
#endif

#define PPFR_DCHECK_EQ(a, b) PPFR_DCHECK_OP(a, b, ==)
#define PPFR_DCHECK_NE(a, b) PPFR_DCHECK_OP(a, b, !=)
#define PPFR_DCHECK_LT(a, b) PPFR_DCHECK_OP(a, b, <)
#define PPFR_DCHECK_LE(a, b) PPFR_DCHECK_OP(a, b, <=)
#define PPFR_DCHECK_GT(a, b) PPFR_DCHECK_OP(a, b, >)
#define PPFR_DCHECK_GE(a, b) PPFR_DCHECK_OP(a, b, >=)

#endif  // PPFR_COMMON_CHECK_H_
