// In-memory span recorder of the traced run (--trace 1). Spans are
// recorded only from the benchmark's own code, around its calls into
// metaprox's modules; they stay in memory until the run ends and are then
// written as one TSV file. With tracing off every call is a branch on a
// bool, and the end-to-end run never enables it.
#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace servebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Interns a span name; ids index names().
  uint32_t Name(const std::string& name) {
    for (uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.push_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
  }

  /// Records a finished interval; returns its index (a parent handle for
  /// children recorded later), or Span::kNoParent when tracing is off.
  uint32_t Record(uint32_t name, int64_t start_ns, int64_t end_ns,
                  uint32_t parent = Span::kNoParent, uint64_t request = 0) {
    if (!enabled_) return Span::kNoParent;
    spans_.push_back(Span{name, parent, request, start_ns, end_ns});
    return static_cast<uint32_t>(spans_.size() - 1);
  }

  /// Opens a span whose end is filled in by Close(); children recorded in
  /// between may name it as parent.
  uint32_t Open(uint32_t name, uint32_t parent = Span::kNoParent,
                uint64_t request = 0) {
    const int64_t now = NowNs();
    return Record(name, now, now, parent, request);
  }
  void Close(uint32_t span) {
    if (enabled_ && span < spans_.size()) spans_[span].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Writes every span as `name start_ns end_ns parent request self_ns`
  /// (parent -1 for roots). Returns false on an IO error.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<int64_t> self = SelfTimes(spans_);
    std::fprintf(f, "name\tstart_ns\tend_ns\tparent\trequest\tself_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\t%lld\t%lld\t%lld\t%llu\t%lld\n",
                   names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   s.parent == Span::kNoParent
                       ? -1LL
                       : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(self[i]));
    }
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
