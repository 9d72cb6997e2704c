// Measurement utilities: samples, op counting, the in-memory span log and
// its Chrome-trace rendering, and peak RSS.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void OpCounter::Fail(const std::string& why) {
  const int64_t n = failed_.fetch_add(1, std::memory_order_relaxed);
  if (n < 5) std::fprintf(stderr, "perfbench: failed op: %s\n", why.c_str());
}

int SpanLog::Begin(const char* name, int64_t op) {
  const int parent = open_.empty() ? -1 : open_.back();
  if (op < 0 && parent >= 0) op = spans_[parent].op;
  spans_.push_back(Span{name, NowNs(), 0, op, parent});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::End(int index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

Samples SpanDurationsUs(const std::vector<const SpanLog*>& logs,
                        const std::string& name) {
  Samples out;
  for (const SpanLog* log : logs) {
    for (const SpanLog::Span& s : log->spans()) {
      if (name == s.name) out.Add(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::string ChromeTrace(const std::vector<const SpanLog*>& logs) {
  int64_t epoch = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const SpanLog::Span& s : log->spans()) epoch = std::min(epoch, s.start_ns);
  }
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  char buf[320];
  for (const SpanLog* log : logs) {
    for (const SpanLog::Span& s : log->spans()) {
      const std::string name = s.name;
      const std::string cat = name.substr(0, name.find('.'));
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                    "\"args\": {\"op\": %lld, \"parent\": %d}}",
                    first ? "" : ",", s.name, cat.c_str(),
                    static_cast<double>(s.start_ns - epoch) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    log->tid(), static_cast<long long>(s.op), s.parent);
      out += buf;
      first = false;
    }
  }
  out += "\n]}\n";
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace perfbench
