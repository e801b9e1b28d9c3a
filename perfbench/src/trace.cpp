#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

std::int32_t Tracer::begin(const char* name, std::int64_t op,
                           std::int32_t parent) {
  spans_.push_back(Span{name, op, parent, now_s(), 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

double span_cost_ns() {
  constexpr std::size_t kSpans = 1 << 14;
  constexpr std::size_t kBatches = 9;
  std::vector<double> per_span;
  for (std::size_t b = 0; b < kBatches; ++b) {
    Tracer tracer(kSpans);
    const double t0 = now_s();
    for (std::size_t i = 0; i < kSpans; ++i) {
      Scope span(&tracer, "calibrate", 0);
    }
    per_span.push_back((now_s() - t0) * 1e9 / kSpans);
  }
  std::nth_element(per_span.begin(), per_span.begin() + kBatches / 2,
                   per_span.end());
  return per_span[kBatches / 2];
}

ProcCounters proc_counters() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ProcCounters{ru.ru_minflt, ru.ru_nivcsw};
}

std::int64_t peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::int64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!in || !std::getline(in, line)) return -1;
  // cpu user nice system idle iowait irq softirq steal ...
  std::istringstream fields(line);
  std::string label;
  std::int64_t value = 0;
  fields >> label;
  if (label != "cpu") return -1;
  for (int i = 0; i < 8; ++i) {
    if (!(fields >> value)) return -1;
  }
  return value;
}

void JsonWriter::separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

JsonWriter& JsonWriter::raw(const std::string& token) {
  separate();
  out_ += token;
  return *this;
}

JsonWriter& JsonWriter::number(double v) {
  if (!std::isfinite(v)) return raw("null");
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return raw(std::string(buf, res.ptr));
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(const char* k) {
  separate();
  out_ += '"';
  out_ += k;
  out_ += "\":";
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  separate();
  out_ += '"';
  for (char c : v) {
    if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned>(c));
      out_ += esc;
      continue;
    }
    if (c == '"' || c == '\\') out_ += '\\';
    out_ += c;
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::array(const char* k,
                              const std::vector<double>& values) {
  key(k);
  begin_array();
  for (double v : values) value(v);
  return end_array();
}

}  // namespace perfbench
