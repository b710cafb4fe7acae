#include "pipe.hpp"

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "crc/crc_spec.hpp"
#include "crc/engine_registry.hpp"
#include "lfsr/catalog.hpp"
#include "pipeline/stages.hpp"

namespace pb {

namespace {

/// Push times are kept in a ring indexed by batch sequence; the bounded
/// arena keeps far fewer batches than this in flight.
constexpr std::size_t kPushRing = 1 << 12;

/// Frames in existence at once, in batches (the closed-loop bound).
constexpr std::size_t kArenaBatches = 3;

/// Timing decorator: wraps a real stage and records one span per batch,
/// parented to the push span of the same batch.
class TimedStage : public plfsr::Stage {
 public:
  TimedStage(std::unique_ptr<plfsr::Stage> inner, Tracer& tracer,
             std::uint32_t parent, std::size_t batch)
      : inner_(std::move(inner)),
        tracer_(tracer),
        span_(tracer.intern(std::string("stage.") + inner_->name())),
        parent_(parent),
        batch_(batch) {}

  const char* name() const override { return inner_->name(); }

  void process(plfsr::FrameBatch& b) override {
    const std::uint64_t id = b.empty() ? 0 : b.front().id / batch_;
    const std::int64_t t0 = now_ns();
    inner_->process(b);
    tracer_.record(span_, parent_, id, t0, now_ns());
  }

 private:
  std::unique_ptr<plfsr::Stage> inner_;
  Tracer& tracer_;
  std::uint32_t span_, parent_;
  std::size_t batch_;
};

}  // namespace

/// Terminal stage: one comparison per frame against the precomputed
/// golden CRC. Inside the timed window it also counts frames per
/// sub-window and records each batch's push -> sink latency, in fixed
/// memory. Clearing the batch drops the descriptors, which recycles them.
class GoldenSink : public plfsr::Stage {
 public:
  GoldenSink(const PipeInputs& in, std::size_t batch,
             const std::vector<std::int64_t>& push_ns)
      : in_(in), batch_(batch), push_ns_(push_ns) {}

  const char* name() const override { return "sink"; }

  /// Producer side, before the window starts: from the release of
  /// `open_` on, the sink counts the arrivals that fall inside `win`.
  void open_window(const SubWindows& win) {
    sub_frames_.assign(win.size(), 0);
    latency_ = WindowLatency(win.size());
    window_ = win;
    open_.store(true, std::memory_order_release);
  }

  void process(plfsr::FrameBatch& b) override {
    if (b.empty()) return;
    const std::int64_t t = now_ns();
    for (const plfsr::Frame& f : b)
      if (f.crc != in_.golden_crc[in_.payload_of(f.id)]) {
        ++mismatches_;
        report_failure("pipe: frame " + std::to_string(f.id) +
                       " CRC differs from its golden");
      }
    checked_ += b.size();
    const int sub = open_.load(std::memory_order_acquire) ? window_.index(t) : -1;
    if (sub >= 0) {
      const std::uint64_t seq = b.front().id / batch_;
      sub_frames_[sub] += b.size();
      latency_.add_ns(sub, t - push_ns_[seq % kPushRing]);
    }
    b.clear();
  }

  std::uint64_t checked() const { return checked_; }
  std::uint64_t mismatches() const { return mismatches_; }
  const std::vector<std::uint64_t>& sub_frames() const { return sub_frames_; }
  const WindowLatency& latency() const { return latency_; }

 private:
  const PipeInputs& in_;
  std::size_t batch_;
  const std::vector<std::int64_t>& push_ns_;
  std::uint64_t checked_ = 0, mismatches_ = 0;
  std::atomic<bool> open_{false};
  SubWindows window_{0, 0, 1};
  std::vector<std::uint64_t> sub_frames_;
  WindowLatency latency_;
};

PipeRig::PipeRig(const PipeInputs& in, std::size_t batch, Tracer* tracer)
    : in_(in),
      batch_(batch),
      tracer_(tracer),
      arena_(batch * kArenaBatches),
      push_ns_(kPushRing, 0) {
  if (tracer_) {
    span_push_ = tracer_->intern("pipeline.push");
    span_acquire_ = tracer_->intern("arena.acquire");
  }
  std::vector<std::unique_ptr<plfsr::Stage>> stages;
  stages.push_back(std::make_unique<plfsr::ScrambleStage>(
      plfsr::catalog::scrambler_80211(), in.scramble_seed));
  stages.push_back(std::make_unique<plfsr::FcsStage>(
      plfsr::EngineRegistry::instance().best_for(
          plfsr::crcspec::crc32_ethernet())));
  auto sink = std::make_unique<GoldenSink>(in_, batch_, push_ns_);
  sink_ = sink.get();
  stages.push_back(std::move(sink));
  if (tracer_)
    for (auto& s : stages)
      s = std::make_unique<TimedStage>(std::move(s), *tracer_, span_push_,
                                       batch_);
  pipe_ = std::make_unique<plfsr::Pipeline>(std::move(stages),
                                            plfsr::PipelinePlan{});
  pipe_->start();
}

PipeRig::~PipeRig() { finish(); }

std::uint64_t PipeRig::frames_checked() const { return sink_->checked(); }
std::uint64_t PipeRig::mismatches() const { return sink_->mismatches(); }

void PipeRig::push_batch() {
  plfsr::FrameBatch b(batch_);
  const std::uint64_t seq = next_id_ / batch_;
  const std::int64_t a0 = tracer_ ? now_ns() : 0;
  for (std::size_t i = 0; i < batch_; ++i) {
    const std::vector<std::uint8_t>& p =
        in_.payloads[in_.payload_of(next_id_ + i)];
    if (!arena_.acquire(b[i].bytes, p.size()))
      throw std::runtime_error("frame arena closed under the producer");
  }
  if (tracer_) tracer_->record(span_acquire_, kNoParent, seq, a0, now_ns());
  for (plfsr::Frame& f : b) {
    f.id = next_id_++;
    const std::vector<std::uint8_t>& p = in_.payloads[in_.payload_of(f.id)];
    std::memcpy(f.bytes.data(), p.data(), p.size());
  }
  const std::int64_t t0 = now_ns();
  push_ns_[seq % kPushRing] = t0;
  if (!pipe_->push(std::move(b))) {
    aborted_ = true;
    throw std::runtime_error("pipeline aborted");
  }
  if (tracer_) tracer_->record(span_push_, kNoParent, seq, t0, now_ns());
}

void PipeRig::warm_up(std::uint64_t frames) {
  const std::uint64_t end = next_id_ + frames;
  while (next_id_ < end) push_batch();
}

PipeWindow PipeRig::run(double seconds, int subwindows) {
  const SubWindows win(now_ns(), seconds, subwindows);
  sink_->open_window(win);
  std::vector<double> cpu{process_cpu_us()};
  while (static_cast<int>(cpu.size()) <= subwindows) {
    if (now_ns() >= win.bound(static_cast<int>(cpu.size()))) {
      cpu.push_back(process_cpu_us());
      continue;
    }
    push_batch();
  }
  finish();

  PipeWindow w;
  w.latency = sink_->latency().percentiles();
  win.summarize(sink_->sub_frames(), cpu, w.sub_rates, w.sub_cpu_us);
  return w;
}

void PipeRig::finish() {
  if (finished_) return;
  finished_ = true;
  pipe_->close();
  try {
    pipe_->wait();
  } catch (const std::exception&) {
    aborted_ = true;
  }
}

}  // namespace pb
