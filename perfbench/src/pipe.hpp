// The pipe graph: ScrambleStage(802.11) -> FcsStage(best_for(CRC-32/
// ETHERNET)) -> golden-checking sink, fed from a bounded FrameArena under
// the default PipelinePlan{} — what a user of the library gets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "inputs.hpp"
#include "pipeline/pipeline.hpp"
#include "support/frame_arena.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace pb {

/// What one timed window of a pipe rig measured.
struct PipeWindow {
  std::vector<double> sub_rates;       ///< frames/s per sub-window
  std::vector<double> sub_cpu_us;      ///< process CPU µs/frame per sub-window
  Percentiles latency;                 ///< push -> sink, one per batch
};

class GoldenSink;

/// One set-up instance of the pipe graph: arena, stages, started
/// pipeline. Single use: construct, warm_up(), run(), finish().
class PipeRig {
 public:
  /// `tracer` (optional) wraps every stage in a timing decorator and
  /// records push/acquire spans.
  PipeRig(const PipeInputs& in, std::size_t batch, Tracer* tracer);
  ~PipeRig();
  PipeRig(const PipeRig&) = delete;
  PipeRig& operator=(const PipeRig&) = delete;

  /// Stream `frames` frames untimed (pools, keystream cache, engines).
  void warm_up(std::uint64_t frames);
  /// Stream for `seconds`, split into `subwindows` equal parts, then
  /// finish().
  PipeWindow run(double seconds, int subwindows);
  /// close() + wait(); every frame pushed has then been checked.
  void finish();

  const plfsr::Pipeline& pipeline() const { return *pipe_; }
  const plfsr::FrameArena& arena() const { return arena_; }
  std::uint64_t frames_checked() const;
  std::uint64_t mismatches() const;
  bool aborted() const { return aborted_; }

 private:
  void push_batch();

  const PipeInputs& in_;
  std::size_t batch_;
  Tracer* tracer_;
  plfsr::FrameArena arena_;
  std::vector<std::int64_t> push_ns_;  // ring, indexed by batch seq
  GoldenSink* sink_ = nullptr;  // owned by pipe_
  std::unique_ptr<plfsr::Pipeline> pipe_;
  std::uint64_t next_id_ = 0;
  bool finished_ = false;
  bool aborted_ = false;
  std::uint32_t span_push_ = 0, span_acquire_ = 0;
};

}  // namespace pb
