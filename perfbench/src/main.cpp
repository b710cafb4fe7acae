// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--out-dir <dir>] [--corrupt-golden]
//
// Runs one workload (pipe_small, pipe_mtu, serve_mix, serve_small) on
// inputs made from the seed, checks every output bit-exactly, and prints
// one metric per line followed by a final JSON line:
//   --trace 0: the end-to-end metrics, measured with tracing off;
//   --trace 1: the per-layer ladder, with span self times and the tracing
//              overhead (traced minus untraced frames/s).
// --corrupt-golden flips one golden value, so the run must fail: the
// benchmark's own tests use it to prove the checks fire.
// Exit status is 0 only when every check passed.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "inputs.hpp"
#include "ladder.hpp"
#include "offload/dispatch.hpp"
#include "offload/protocol.hpp"
#include "pipe.hpp"
#include "serve.hpp"
#include "stamp.hpp"
#include "trace.hpp"
#include "util.hpp"

using namespace pb;

namespace {

const std::int64_t g_process_start = now_ns();

/// Set-ups per run: at least kSetups, and more until together they take
/// kSetupSeconds; setup_s is their median.
constexpr int kSetups = 5;
constexpr double kSetupSeconds = 0.5;

bool more_setups(const std::vector<double>& setup_s) {
  double total = 0;
  for (double s : setup_s) total += s;
  return static_cast<int>(setup_s.size()) < kSetups || total < kSetupSeconds;
}
/// Warm-up before any window: pipe batches, serve replies per pool entry.
constexpr std::uint64_t kWarmBatches = 256;
constexpr std::uint64_t kWarmPerTemplate = 4;

/// Timed windows split into quarter-second sub-windows; rates, CPU per
/// frame and latency percentiles are medians over them.
int subwindows(double seconds) {
  return std::max(4, static_cast<int>(seconds * 4 + 0.5));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
  std::string out_dir = ".";
  bool corrupt = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has = i + 1 < argc;
    if (k == "--workload" && has) a.workload = argv[++i];
    else if (k == "--seed" && has) a.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (k == "--seconds" && has) a.seconds = std::atof(argv[++i]);
    else if (k == "--trace" && has) a.trace = std::atoi(argv[++i]);
    else if (k == "--commit" && has) a.commit = argv[++i];
    else if (k == "--out-dir" && has) a.out_dir = argv[++i];
    else if (k == "--corrupt-golden") a.corrupt = true;
    else return false;
  }
  return find_workload(a.workload) != nullptr && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

// --- pipe ---------------------------------------------------------------

struct PipeSetup {
  PipeInputs in;
  std::unique_ptr<PipeRig> rig;
};

std::unique_ptr<PipeSetup> pipe_setup(const WorkloadSpec& w, const Args& a,
                                      Tracer* tracer) {
  auto s = std::make_unique<PipeSetup>();
  s->in = make_pipe_inputs(w, a.seed);
  compute_pipe_goldens(s->in);
  if (a.corrupt) s->in.golden_crc[s->in.order[0]] ^= 1;
  s->rig = std::make_unique<PipeRig>(s->in, w.batch, tracer);
  s->rig->warm_up(kWarmBatches * w.batch);
  return s;
}

void count(const PipeRig& rig, Tally& t) {
  t.attempted += rig.frames_checked() + (rig.aborted() ? 1 : 0);
  t.failed += rig.mismatches() + (rig.aborted() ? 1 : 0);
}

// --- serve --------------------------------------------------------------

struct ServeSetup {
  plfsr::offload::OffloadDispatcher d;
  ServeInputs in;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<LoadClient> client;
};

std::unique_ptr<ServeSetup> serve_setup(const WorkloadSpec& w, const Args& a,
                                        Tracer* tracer) {
  auto s = std::make_unique<ServeSetup>();
  s->in = make_serve_requests(w, a.seed, s->d);
  if (!attach_goldens(s->in.pool, s->d)) return nullptr;
  if (a.corrupt) s->in.pool[s->in.order[0]].golden.back() ^= 1;
  s->server = std::make_unique<ServerProcess>();
  if (!s->server->ok()) {
    std::cerr << "perfbench: the server process did not start\n";
    return nullptr;
  }
  s->client = std::make_unique<LoadClient>(s->in.pool, s->in.order,
                                           w.connections, w.depth, tracer);
  s->client->connect(s->server->port());
  s->client->warm_up(kWarmPerTemplate * s->in.pool.size());
  return s;
}

/// Stop a serve setup: collect in-flight replies, stop the server.
ServerSample close(ServeSetup& s, Tally& t) {
  s.client->drain();
  t.add(s.client->tally());
  const ServerSample fin = s.server->stop();
  t.check(fin.ok && fin.error_replies == 0,
          "server: error replies or no final counters");
  return fin;
}

// --- output -------------------------------------------------------------

int finish(const Metrics& m, const Tally& t, bool fatal) {
  const bool correct = !fatal && t.failed == 0 && t.attempted > 0;
  std::cout << "fail_ratio = "
            << (t.attempted ? static_cast<double>(t.failed) /
                                  static_cast<double>(t.attempted)
                            : 1.0)
            << "  (" << t.failed << " of " << t.attempted << " failed)\n";
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted > 0 ? t.attempted : 1);
  json += ", \"failed\": " + std::to_string(t.attempted > 0 ? t.failed : 1);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& x : m.list()) {
    json += (first ? "" : ", ") + json_str(x.name) + ": {\"value\": " +
            json_num(x.value) + ", \"unit\": " + json_str(x.unit) + "}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}

void print_metrics(const Metrics& m) {
  for (const Metric& x : m.list())
    std::cout << x.name << " = " << json_num(x.value) << " " << x.unit << "\n";
}

void add_latency(Metrics& m, const Percentiles& p) {
  std::cout << "latency samples = " << p.count
            << (p.has_p99 ? ""
                          : "  (p99 withheld: a sub-window has fewer than "
                            "10 samples beyond it)")
            << "\n";
  m.add("latency_p50_us", p.p50, "us");
  if (p.has_p99) m.add("latency_p99_us", p.p99, "us");
}

// --- runs ---------------------------------------------------------------

int run_end_to_end(const WorkloadSpec& w, const Args& a) {
  Metrics m;
  Tally t;
  std::vector<double> setup_s;
  const int sub = subwindows(a.seconds);
  if (!w.serve) {
    std::cout << "stamp " << host_stamp(w.name, a.commit, 0) << "\n";
    std::unique_ptr<PipeSetup> s;
    for (int k = 0; more_setups(setup_s); ++k) {
      if (s) {
        s->rig->finish();
        count(*s->rig, t);
        s.reset();
      }
      const std::int64_t t0 = k == 0 ? g_process_start : now_ns();
      s = pipe_setup(w, a, nullptr);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    const PipeWindow win = s->rig->run(a.seconds, sub);
    count(*s->rig, t);
    m.add("frames_per_s", median(win.sub_rates), "frames/s");
    add_latency(m, win.latency);
    m.add("cpu_us_per_frame", median(win.sub_cpu_us), "us");
    m.add("peak_rss_mb", process_peak_rss_mb(), "MB");
  } else {
    std::unique_ptr<ServeSetup> s;
    for (int k = 0; more_setups(setup_s); ++k) {
      if (s) {
        close(*s, t);
        s.reset();
      }
      const std::int64_t t0 = k == 0 ? g_process_start : now_ns();
      s = serve_setup(w, a, nullptr);
      if (!s) return finish(m, t, true);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    std::cout << "stamp " << host_stamp(w.name, a.commit, s->server->workers())
              << "\n";
    const ServeWindow win = s->client->run(a.seconds, sub, *s->server);
    const ServerSample fin = close(*s, t);
    m.add("frames_per_s", median(win.sub_rates), "frames/s");
    add_latency(m, win.latency);
    m.add("cpu_us_per_frame", median(win.sub_cpu_us), "us");
    m.add("peak_rss_mb", fin.peak_rss_mb, "MB");
  }
  m.add("setup_s", median(setup_s), "s");
  print_metrics(m);
  return finish(m, t, false);
}

/// Every chain request derived from a pipe payload must carry the CRC the
/// serial reference composition gives that payload.
void check_chains_against_pipe(const std::vector<Template>& set,
                               const PipeInputs& in, Tally& t) {
  std::size_t payload = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (set[i].op != plfsr::offload::Op::kPipeline) continue;
    plfsr::offload::Response r;
    const std::span<const std::uint8_t> body(
        set[i].golden.data() + plfsr::offload::kLenBytes,
        set[i].golden.size() - plfsr::offload::kLenBytes);
    t.check(plfsr::offload::decode_response_body(body, r) &&
                r.result == in.golden_crc[payload],
            "chain " + set[i].label +
                " differs from the serial reference composition");
    ++payload;
  }
}

int run_traced(const WorkloadSpec& w, const Args& a) {
  Metrics m;
  Tally t;
  Tracer tracer;
  const double half = std::max(0.5, a.seconds / 2);
  const int sub = subwindows(half);
  double untraced = 0, traced = 0;
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t batch = 64;
  std::uint64_t scramble_seed = 0;
  plfsr::offload::OffloadDispatcher d;
  std::vector<Template> set;
  std::size_t workers = 0;

  if (!w.serve) {
    {
      auto s = pipe_setup(w, a, nullptr);
      untraced = median(s->rig->run(half, sub).sub_rates);
      count(*s->rig, t);
    }
    const std::int64_t t0 = now_ns();
    auto s = pipe_setup(w, a, &tracer);
    traced = median(s->rig->run(half, sub).sub_rates);
    count(*s->rig, t);
    pipeline_metrics(*s->rig, tracer.collect(), tracer,
                     static_cast<double>(now_ns() - t0) / 1e9, m);
    frames = s->in.payloads;
    batch = w.batch;
    scramble_seed = s->in.scramble_seed;
    set = replay_set(w, a.seed, &s->in, nullptr, d);
    if (!attach_goldens(set, d)) return finish(m, t, true);
    check_chains_against_pipe(set, s->in, t);
  } else {
    {
      auto s = serve_setup(w, a, nullptr);
      if (!s) return finish(m, t, true);
      untraced = median(s->client->run(half, sub, *s->server).sub_rates);
      close(*s, t);
    }
    auto s = serve_setup(w, a, &tracer);
    if (!s) return finish(m, t, true);
    workers = s->server->workers();
    traced = median(s->client->run(half, sub, *s->server).sub_rates);
    close(*s, t);
    for (const Template& x : s->in.pool) frames.push_back(x.data);
    // The pipeline rung on the pool's own payloads.
    PipeInputs p = pipe_inputs_from(s->in, a.seed);
    compute_pipe_goldens(p);
    scramble_seed = p.scramble_seed;
    Tracer ptracer;
    const std::int64_t t0 = now_ns();
    PipeRig rig(p, batch, &ptracer);
    rig.warm_up(kWarmBatches * batch);
    rig.run(1.0, 4);
    count(rig, t);
    pipeline_metrics(rig, ptracer.collect(), ptracer,
                     static_cast<double>(now_ns() - t0) / 1e9, m);
    set = replay_set(w, a.seed, nullptr, &s->in, d);
    if (!attach_goldens(set, d)) return finish(m, t, true);
  }
  std::cout << "stamp " << host_stamp(w.name, a.commit, workers) << "\n";

  kernel_rungs(frames, batch, scramble_seed, a.seed, tracer, m, t);
  const double in_process_us = replay_rung(d, set, tracer, m, t);
  server_rung(set, in_process_us, m, t);
  m.add("trace.untraced_frames_per_s", untraced, "frames/s");
  m.add("trace.traced_frames_per_s", traced, "frames/s");
  m.add("trace.overhead_frames_per_s", untraced - traced, "frames/s");

  // Span self times (duration minus the part child spans cover), printed
  // and written out with the first spans of the run.
  const std::vector<Span> spans = tracer.collect();
  const auto totals = self_times(spans, tracer);
  const std::string path = a.out_dir + "/trace-" + w.name + "-" +
                           std::to_string(a.seed) + ".txt";
  std::ofstream out(path);
  out << "# span count total_ns self_ns\n";
  for (const auto& [name, s] : totals) {
    std::cout << "span " << name << ": count " << s.count << ", mean "
              << s.total_ns / static_cast<double>(s.count) << " ns, self "
              << s.self_ns / static_cast<double>(s.count) << " ns\n";
    out << name << " " << s.count << " " << json_num(s.total_ns) << " "
        << json_num(s.self_ns) << "\n";
  }
  out << "# first spans: name parent id start_ns end_ns thread\n";
  for (std::size_t i = 0; i < spans.size() && i < 2000; ++i) {
    const Span& s = spans[i];
    out << tracer.name(s.name) << " "
        << (s.parent == kNoParent ? "-" : tracer.name(s.parent)) << " " << s.id
        << " " << s.start << " " << s.end << " " << s.thread << "\n";
  }
  print_metrics(m);
  return finish(m, t, false);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--server-child") == 0)
    return server_child_main();
  Args a;
  if (!parse(argc, argv, a)) {
    std::cerr << "usage: perfbench --workload "
                 "{pipe_small|pipe_mtu|serve_mix|serve_small} --seed N "
                 "--seconds S --trace {0|1} [--commit ID] [--out-dir DIR] "
                 "[--corrupt-golden]\n";
    return 2;
  }
  const WorkloadSpec& w = *find_workload(a.workload);
  if (w.one_cpu && pin_to_one_cpu() < 0) {
    std::cerr << "perfbench: cannot pin " << w.name << " to one CPU\n";
    Tally t;
    return finish(Metrics{}, t, true);
  }
  try {
    return a.trace ? run_traced(w, a) : run_end_to_end(w, a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    Tally t;
    return finish(Metrics{}, t, true);
  }
}
