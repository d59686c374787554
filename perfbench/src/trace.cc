#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace qreg {
namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanLog::Begin(const char* name, int32_t parent, int64_t request) {
  const int64_t now = NowNs();
  return Add(name, now, now, parent, request);
}

int32_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     int32_t parent, int64_t request) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Append(SpanLog&& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  spans_.reserve(spans_.size() + other.spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
  other.spans_.clear();
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,request\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%lld,%lld,%d,%lld\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& k : kids) {
      const int64_t a = std::max(k.first, lo);
      const int64_t b = std::min(k.second, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
      } else {
        if (open) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
        open = true;
      }
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<int64_t>(0, hi - lo) - covered;
  }
  return self;
}

}  // namespace perfbench
}  // namespace qreg
