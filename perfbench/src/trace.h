// In-memory span log for the traced run.
//
// Spans are recorded by the benchmark's own code around calls into the
// program's public functions (and around wire round trips); nothing inside
// the program is instrumented. The log is kept in memory while the run
// measures and written out once it ends.

#ifndef QREG_PERFBENCH_TRACE_H_
#define QREG_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace qreg {
namespace perfbench {

/// \brief Monotonic clock reading in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// \brief One timed interval. `parent` indexes the same log (-1 = root);
/// spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = 0;
};

/// \brief Append-only span log. Not thread-safe: each thread records into
/// its own log, and Append() merges them afterwards.
class SpanLog {
 public:
  /// Opens a span starting now; returns its index for End() and as a parent.
  int32_t Begin(const char* name, int32_t parent, int64_t request);
  void End(int32_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

  /// Records a span whose bounds are already known.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, int64_t request);

  /// Moves every span of `other` to the end of this log, re-basing parents.
  void Append(SpanLog&& other);

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  /// Writes "name,start_ns,end_ns,parent,request" lines; false on I/O error.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// \brief Self time of every span: its duration minus the part of its
/// interval covered by the union of its children (clipped to the span, so
/// overlapping or overhanging children are not double-counted).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench
}  // namespace qreg

#endif  // QREG_PERFBENCH_TRACE_H_
