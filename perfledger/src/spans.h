// In-memory span recorder of the traced ledger run. Spans are recorded from
// the ledger's own code around each call into a layer of the solver (the
// program itself is not instrumented): name, start, end and the enclosing
// span. A span's name is "<layer>.<call>"; the layer is what precedes the
// first dot. Recording is single-threaded (the calls are issued from the
// main thread), so the recorder needs no locking.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
};

/// Self time (duration minus the part covered by child spans), total time
/// and count of one span name or one layer.
struct SelfTime {
  double self_s = 0;
  double total_s = 0;
  long count = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span: opens on construction, closes on destruction. A disabled
  /// recorder hands out inert scopes.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  [[nodiscard]] Scope span(const char* name) { return Scope(*this, name); }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Per span name and per layer ("layer:<name>") self times.
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;
  /// Chrome trace ("X" events, microseconds, one tid) of every span.
  void write_chrome_trace(const std::string& path) const;
  /// Plain-text table of self_times(), sorted by name.
  [[nodiscard]] std::string table() const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace ledger
