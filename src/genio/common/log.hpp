// Structured logging with an in-memory sink. Security components emit audit
// records here, and tests attach a MemorySink to assert on them.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "genio/common/sim_clock.hpp"

namespace genio::common {

enum class LogLevel { kDebug, kInfo, kWarn, kError, kCritical };

std::string to_string(LogLevel level);

struct LogRecord {
  SimTime time;
  LogLevel level = LogLevel::kInfo;
  std::string component;  // e.g. "pon.olt", "os.fim", "middleware.rbac"
  std::string message;
};

/// A log destination. Components log through a Logger that fans out to sinks.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void write(const LogRecord& record) = 0;
};

/// Keeps every record in memory for test assertions and report generation.
class MemorySink final : public LogSink {
 public:
  void write(const LogRecord& record) override { records_.push_back(record); }

  const std::vector<LogRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

  /// Records at or above `min_level` whose component starts with `prefix`.
  std::vector<LogRecord> filter(LogLevel min_level, const std::string& prefix = "") const;

 private:
  std::vector<LogRecord> records_;
};

/// Fan-out logger bound to a simulation clock. Non-owning: sinks and clock
/// must outlive the logger (they are owned by the platform/scenario).
class Logger {
 public:
  explicit Logger(const SimClock* clock = nullptr) : clock_(clock) {}

  void add_sink(LogSink* sink) { sinks_.push_back(sink); }
  void set_min_level(LogLevel level) { min_level_ = level; }

  void log(LogLevel level, std::string component, std::string message) const;

  void debug(std::string component, std::string message) const {
    log(LogLevel::kDebug, std::move(component), std::move(message));
  }
  void info(std::string component, std::string message) const {
    log(LogLevel::kInfo, std::move(component), std::move(message));
  }
  void warn(std::string component, std::string message) const {
    log(LogLevel::kWarn, std::move(component), std::move(message));
  }
  void error(std::string component, std::string message) const {
    log(LogLevel::kError, std::move(component), std::move(message));
  }
  void critical(std::string component, std::string message) const {
    log(LogLevel::kCritical, std::move(component), std::move(message));
  }

 private:
  const SimClock* clock_;
  std::vector<LogSink*> sinks_;
  LogLevel min_level_ = LogLevel::kDebug;
};

}  // namespace genio::common
