#include "common/logging.h"

#include <cstdio>
#include <cstring>

namespace ppfr {
namespace {

// Messages below this level are dropped.
constexpr LogLevel kMinLevel = LogLevel::kInfo;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

}  // namespace

namespace internal {

LogLine::LogLine(LogLevel level, const char* file, int line) : level_(level) {
  stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line << "] ";
}

LogLine::~LogLine() {
  if (level_ < kMinLevel) return;
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

}  // namespace internal
}  // namespace ppfr
