// Unit tests of the benchmark's own arithmetic and input generation.
// Run: perfbench_tests (exit status 0 when every check passes).
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

void pipe_inputs_follow_the_seed() {
  const pb::WorkloadSpec& w = *pb::find_workload("pipe_small");
  const pb::PipeInputs a = pb::make_pipe_inputs(w, 7);
  const pb::PipeInputs b = pb::make_pipe_inputs(w, 7);
  const pb::PipeInputs c = pb::make_pipe_inputs(w, 8);
  CHECK(a.payloads == b.payloads);
  CHECK(a.order == b.order);
  CHECK(a.scramble_seed == b.scramble_seed);
  CHECK(a.payloads != c.payloads);
  CHECK(a.order != c.order);
  CHECK(a.payloads.size() == w.payloads);
  CHECK(a.payloads[0].size() == w.frame_bytes);
  // Every payload is used equally often whatever the seed.
  std::vector<int> uses(w.payloads, 0);
  for (std::uint32_t p : c.order) ++uses[p];
  CHECK(uses.front() == 16 && uses.back() == 16);
}

std::multiset<std::string> labels(const pb::ServeInputs& in) {
  std::multiset<std::string> out;
  for (const pb::Template& t : in.pool) out.insert(t.label);
  return out;
}

void serve_requests_follow_the_seed() {
  const plfsr::offload::OffloadDispatcher d;
  for (const char* name : {"serve_mix", "serve_small"}) {
    const pb::WorkloadSpec& w = *pb::find_workload(name);
    const pb::ServeInputs a = pb::make_serve_requests(w, 11, d);
    const pb::ServeInputs b = pb::make_serve_requests(w, 11, d);
    const pb::ServeInputs c = pb::make_serve_requests(w, 12, d);
    CHECK(a.pool.size() == b.pool.size());
    bool same = a.order == b.order;
    for (std::size_t i = 0; same && i < a.pool.size(); ++i)
      same = a.pool[i].req == b.pool[i].req;
    CHECK(same);
    bool differ = a.order != c.order;
    for (std::size_t i = 0; !differ && i < a.pool.size(); ++i)
      differ = a.pool[i].req != c.pool[i].req;
    CHECK(differ);
    // The mix itself does not depend on the seed.
    CHECK(labels(a) == labels(c));
  }
}

void percentiles_withhold_p99_without_ten_beyond() {
  // Samples of 1..n ns; values under 256 ns are recorded exactly.
  const auto upto = [](int n) {
    pb::LatencyHistogram h;
    for (int i = 1; i <= n; ++i) h.add_ns(i);
    return h.percentiles();
  };
  pb::Percentiles p = upto(100);
  CHECK(p.count == 100);
  CHECK(p.p50 * 1e3 == 50);  // exact below 256 ns
  CHECK(!p.has_p99);           // one sample beyond the 99th percentile
  p = upto(999);
  CHECK(p.count == 999 && !p.has_p99);  // nine beyond
  p = upto(1000);
  CHECK(p.count == 1000 && p.has_p99);  // ten beyond
  CHECK(p.p99 * 1e3 == 991);  // 990 ns lies in the 2 ns bucket [990, 992)
  p = pb::LatencyHistogram().percentiles();
  CHECK(p.count == 0 && !p.has_p99);
  // Above 256 ns a bucket is 0.4% wide: the reported value stays within it.
  pb::LatencyHistogram h;
  for (int i = 0; i < 2000; ++i) h.add_ns(123456789);
  const double us = h.percentiles().p50;
  CHECK(us > 123456.789 * 0.996 && us < 123456.789 * 1.004);

  // Per sub-window: medians over sub-windows, p99 only if every
  // sub-window supports it, and the count is the total.
  pb::WindowLatency w(3);
  for (int s = 0; s < 3; ++s)
    for (int i = 1; i <= 1000; ++i) w.add_ns(s, i + 100 * s);
  p = w.percentiles();
  CHECK(p.count == 3000 && p.has_p99);
  CHECK(p.p50 * 1e3 == 601);  // sub-window p50s 500.5, 601, 701
  // A thin sub-window gives no p99; with fewer than half qualifying the
  // window withholds it.
  pb::WindowLatency thin(3);
  for (int i = 1; i <= 1000; ++i) thin.add_ns(0, i);
  for (int i = 1; i <= 100; ++i) thin.add_ns(1, i);
  for (int i = 1; i <= 100; ++i) thin.add_ns(2, i);
  p = thin.percentiles();
  CHECK(p.count == 1200 && !p.has_p99);
  for (int i = 1; i <= 1000; ++i) thin.add_ns(2, i);
  p = thin.percentiles();
  CHECK(p.has_p99 && p.p99 * 1e3 > 988 && p.p99 * 1e3 < 992);
}

void sub_windows_cut_the_window_evenly() {
  const pb::SubWindows w(1000, 1e-6, 4);  // [1000, 2000) ns, 250 ns each
  CHECK(w.index(999) == -1 && w.index(1000) == 0 && w.index(1249) == 0);
  CHECK(w.index(1250) == 1 && w.index(1999) == 3 && w.index(2000) == -1);
  std::vector<double> rates, cpu;
  // CPU sampled at the first three bounds only: the last two sub-windows
  // give no CPU figure, and neither does an empty one.
  w.summarize({5, 0, 10, 20}, {0, 10, 10}, rates, cpu);
  CHECK(rates.size() == 4 && rates[0] == 5 / 250e-9 && rates[1] == 0);
  CHECK(cpu.size() == 1 && cpu[0] == 2);
}

void self_time_of_nested_spans() {
  pb::Tracer names;
  const std::uint32_t parent = names.intern("push");
  const std::uint32_t child = names.intern("stage");
  std::vector<pb::Span> spans = {
      {parent, pb::kNoParent, 1, 0, 100, 0},
      {child, parent, 1, 10, 30, 0},
      {child, parent, 1, 20, 50, 0},  // overlaps its sibling: counted once
      {child, parent, 2, 60, 70, 0},  // another batch: not a child of id 1
  };
  const std::vector<double> self = pb::span_self_ns(spans);
  CHECK(self[0] == 60);
  CHECK(self[1] == 20 && self[2] == 30 && self[3] == 10);
}

void self_time_of_threaded_spans() {
  // A stage span on a worker thread outlives the push span that caused
  // it: only the overlap is subtracted from the parent.
  pb::Tracer tracer;
  const std::uint32_t parent = tracer.intern("push");
  const std::uint32_t child = tracer.intern("stage");
  std::thread producer([&] { tracer.record(parent, pb::kNoParent, 5, 0, 100); });
  producer.join();
  std::thread worker([&] { tracer.record(child, parent, 5, 80, 150); });
  worker.join();
  const std::vector<pb::Span> spans = tracer.collect();
  CHECK(spans.size() == 2);
  CHECK(spans[0].thread != spans[1].thread);
  const auto totals = pb::self_times(spans, tracer);
  CHECK(totals.at("push").self_ns == 80);
  CHECK(totals.at("push").total_ns == 100);
  CHECK(totals.at("stage").self_ns == 70);
}

}  // namespace

int main() {
  pipe_inputs_follow_the_seed();
  serve_requests_follow_the_seed();
  percentiles_withhold_p99_without_ten_beyond();
  sub_windows_cut_the_window_evenly();
  self_time_of_nested_spans();
  self_time_of_threaded_spans();
  if (g_failures) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
