#ifndef PPFR_COMMON_LOGGING_H_
#define PPFR_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace ppfr {

// Messages below kInfo are dropped.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal {

// Stream-style log line that flushes on destruction.
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line);
  ~LogLine();

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace ppfr

#define PPFR_LOG(level) \
  ::ppfr::internal::LogLine(::ppfr::LogLevel::k##level, __FILE__, __LINE__)

#endif  // PPFR_COMMON_LOGGING_H_
