#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace pb {

std::uint64_t Tracer::next_generation() {
  static std::atomic<std::uint64_t> gen{1};
  return gen.fetch_add(1);
}

std::uint32_t Tracer::intern(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

std::vector<Span>& Tracer::local_buffer() {
  // A thread keeps one buffer per tracer; the generation tells a new
  // tracer at a reused address apart from the one the pointer belongs to.
  thread_local std::uint64_t owner = 0;
  thread_local std::vector<Span>* buf = nullptr;
  if (owner != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.emplace_back();
    buffers_.back().reserve(1 << 14);
    buf = &buffers_.back();
    owner = generation_;
  }
  return *buf;
}

void Tracer::record(std::uint32_t name, std::uint32_t parent,
                    std::uint64_t id, std::int64_t start, std::int64_t end) {
  std::vector<Span>& buf = local_buffer();
  buf.push_back({name, parent, id, start, end, 0});
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  std::uint32_t thread = 0;
  for (const std::vector<Span>& b : buffers_) {
    for (Span s : b) {
      s.thread = thread;
      out.push_back(s);
    }
    ++thread;
  }
  return out;
}

std::vector<double> span_self_ns(const std::vector<Span>& spans) {
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> by_key;
  for (std::size_t i = 0; i < spans.size(); ++i)
    by_key[{spans[i].name, spans[i].id}] = i;

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const auto it = by_key.find({s.parent, s.id});
    if (it != by_key.end()) kids[it->second].push_back({s.start, s.end});
  }

  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start, hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (a >= b) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = static_cast<double>(hi - lo - covered);
  }
  return self;
}

std::map<std::string, SpanTotals> self_times(const std::vector<Span>& spans,
                                             const Tracer& names) {
  const std::vector<double> self = span_self_ns(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[names.name(spans[i].name)];
    ++t.count;
    t.total_ns += static_cast<double>(spans[i].end - spans[i].start);
    t.self_ns += self[i];
  }
  return out;
}

}  // namespace pb
