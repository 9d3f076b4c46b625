#include "spans.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::size_t SpanRecorder::open(std::string name, std::uint64_t op) {
  Span s;
  s.name = std::move(name);
  s.op = op;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.begin_us = now_us();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  spans_[index].end_us = now_us();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_seconds(
    std::uint64_t op) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.begin_us;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op != op) continue;
    out[s.name] += (s.end_us - s.begin_us - child_us[i]) * 1e-6;
  }
  return out;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ',';
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f", s.begin_us,
                  s.end_us - s.begin_us);
    os << "{\"name\":\"" << s.name << "\",\"cat\":\"layer\",\"ph\":\"X\","
       << "\"pid\":1,\"tid\":" << s.op << ",\"ts\":" << buf
       << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent << "}}";
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
