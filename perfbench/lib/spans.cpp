#include "lib/spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t SpanRecorder::add(Span span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::finish(std::int64_t id, double end) {
  std::lock_guard lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end = end;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %lld, \"block\": %llu}\n",
                 i, s.name.c_str(), s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.block));
  }
  return std::fclose(out) == 0;
}

std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size())
      continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo)
      children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : kids) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[spans[i].name] += (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

}  // namespace perfbench
