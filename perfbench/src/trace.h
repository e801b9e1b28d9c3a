// Benchmark-side instrumentation: in-memory spans around calls into the
// library's public functions, process counters from getrusage and
// /proc/stat, and a small JSON writer for the raw run record.
//
// Spans are recorded only by the traced pass. Each span carries its name,
// start, end, parent span and the index of the op it belongs to (-1 for
// run-level spans such as the report build). Self times are derived later,
// from the written spans, by perfbench/metrics.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
double now_s();

struct Span {
  const char* name = "";
  std::int64_t op = -1;
  std::int32_t parent = -1;  ///< index into the span list; -1 = root.
  double start = 0;
  double end = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t reserve) { spans_.reserve(reserve); }

  std::int32_t begin(const char* name, std::int64_t op, std::int32_t parent);
  void end(std::int32_t span) { spans_[span].end = now_s(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Median cost in ns of one span's begin and end, timed in a tight loop.
double span_cost_ns();

/// RAII span: begins on construction, ends on destruction. A null tracer
/// makes it a no-op, so one code path serves traced and untraced ops.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t op,
        std::int32_t parent = -1)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, op, parent) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Minor page faults and involuntary context switches of this process so
/// far (getrusage RUSAGE_SELF).
struct ProcCounters {
  std::int64_t minflt = 0;
  std::int64_t nivcsw = 0;
};
ProcCounters proc_counters();

/// Peak resident set of this process in KiB (ru_maxrss).
std::int64_t peak_rss_kib();

/// Host-wide steal ticks from the "cpu" line of /proc/stat; -1 when the
/// file is unreadable.
std::int64_t steal_ticks();

/// Streaming writer for one JSON document. Doubles are written in their
/// shortest round-trip form, so every digit the clock gave survives.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(const char* k);
  JsonWriter& value(const std::string& v);
  template <typename T>
    requires std::is_arithmetic_v<T>
  JsonWriter& value(T v) {
    if constexpr (std::is_same_v<T, bool>) {
      return raw(v ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
      return raw(std::to_string(v));
    } else {
      return number(static_cast<double>(v));
    }
  }

  template <typename T>
  JsonWriter& field(const char* k, const T& v) {
    key(k);
    return value(v);
  }
  JsonWriter& field(const char* k, const char* v) {
    key(k);
    return value(std::string(v));
  }
  JsonWriter& array(const char* k, const std::vector<double>& values);

  const std::string& str() const { return out_; }

 private:
  void separate();
  JsonWriter& raw(const std::string& token);
  JsonWriter& number(double v);

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace perfbench
