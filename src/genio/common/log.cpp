#include "genio/common/log.hpp"

namespace genio::common {

std::string to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kCritical: return "CRITICAL";
  }
  return "UNKNOWN";
}

std::vector<LogRecord> MemorySink::filter(LogLevel min_level,
                                          const std::string& prefix) const {
  std::vector<LogRecord> out;
  for (const auto& r : records_) {
    if (r.level < min_level) continue;
    if (!prefix.empty() && r.component.rfind(prefix, 0) != 0) continue;
    out.push_back(r);
  }
  return out;
}

void Logger::log(LogLevel level, std::string component, std::string message) const {
  if (level < min_level_) return;
  LogRecord record{clock_ ? clock_->now() : SimTime{}, level, std::move(component),
                   std::move(message)};
  for (LogSink* sink : sinks_) sink->write(record);
}

}  // namespace genio::common
