// In-memory span recorder of the traced run.
//
// Spans are recorded from the benchmark's own code around the calls it
// makes into each layer (Pipeline::push, a timing decorator around every
// Stage::process, FrameArena::acquire, client round trips, the in-process
// protocol/dispatch replay); the library itself carries no tracing. A
// span names its parent by (parent name, shared id) rather than by
// pointer, because a stage span runs on a worker thread while the push
// span that caused it ran on the producer thread: the link is resolved
// after the run, when every buffer is collected.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

struct Span {
  std::uint32_t name = 0;            ///< interned span name
  std::uint32_t parent = kNoParent;  ///< interned name of the parent span
  std::uint64_t id = 0;              ///< batch or request id, shared with
                                     ///< the parent span
  std::int64_t start = 0;            ///< ns, steady clock
  std::int64_t end = 0;
  std::uint32_t thread = 0;          ///< recording thread's buffer index
};

/// Span sink with one buffer per recording thread (no lock on the
/// record path once a thread has its buffer).
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Name -> id; call before the recording threads start.
  std::uint32_t intern(const std::string& name);
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  void record(std::uint32_t name, std::uint32_t parent, std::uint64_t id,
              std::int64_t start, std::int64_t end);

  /// Every span recorded so far (call once the recording threads are
  /// done).
  std::vector<Span> collect() const;

 private:
  std::vector<Span>& local_buffer();

  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  mutable std::mutex mu_;  // guards buffers_
  std::list<std::vector<Span>> buffers_;
  std::uint64_t generation_ = next_generation();
  static std::uint64_t next_generation();
};

/// Per-name aggregate over a span set.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0;  ///< sum of span durations
  double self_ns = 0;   ///< sum of (duration - time covered by children)
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers. Children are spans whose
/// (parent, id) names an existing span; a child on another thread that
/// starts or ends outside its parent's interval only counts where it
/// overlaps, and overlapping children are counted once. Aggregated by
/// span name.
std::map<std::string, SpanTotals> self_times(const std::vector<Span>& spans,
                                             const Tracer& names);

/// The per-span self time (same order as `spans`) — the arithmetic
/// behind self_times(), exposed for the benchmark's tests.
std::vector<double> span_self_ns(const std::vector<Span>& spans);

}  // namespace pb
