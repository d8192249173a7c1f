#include "spans.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ledger {

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name) : rec_(&rec) {
  if (!rec.enabled_) return;
  Span s;
  s.name = name;
  s.parent = rec.open_.empty() ? -1 : rec.open_.back();
  s.start_ns = rec.now_ns();
  index_ = static_cast<int>(rec.spans_.size());
  rec.spans_.push_back(std::move(s));
  rec.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  rec_->spans_[index_].end_ns = rec_->now_ns();
  rec_->open_.pop_back();
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::map<std::string, SelfTime> SpanRecorder::self_times() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_s[s.parent] += (s.end_ns - s.start_ns) * 1e-9;
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double total = (s.end_ns - s.start_ns) * 1e-9;
    const double self = total - child_s[i];
    const std::string layer = "layer:" + s.name.substr(0, s.name.find('.'));
    for (const std::string& key : {s.name, layer}) {
      SelfTime& t = out[key];
      t.self_s += self;
      t.total_s += total;
      ++t.count;
    }
  }
  return out;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace " + path);
  f << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string cat = s.name.substr(0, s.name.find('.'));
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name.c_str(), cat.c_str(), s.start_ns * 1e-3,
                  (s.end_ns - s.start_ns) * 1e-3, i, s.parent);
    f << buf;
  }
  f << "]}\n";
  if (!f) throw std::runtime_error("short write to trace " + path);
}

std::string SpanRecorder::table() const {
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-40s %12s %12s %8s\n", "span", "self_s", "total_s",
                "count");
  os << buf;
  for (const auto& [name, t] : self_times()) {
    std::snprintf(buf, sizeof(buf), "%-40s %12.6f %12.6f %8ld\n", name.c_str(), t.self_s,
                  t.total_s, t.count);
    os << buf;
  }
  return os.str();
}

}  // namespace ledger
