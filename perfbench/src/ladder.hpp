// Per-layer rungs of the traced run. Every rung runs on the workload's own
// bytes, batched against batched, in one process, and reports each ratio
// together with its base.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "inputs.hpp"
#include "pipe.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace pb {

/// crc.*, scrambler.* and fec.* on `frames`, in batches of `batch`; every
/// timed repetition is also a "kernel.*" span.
void kernel_rungs(const std::vector<std::vector<std::uint8_t>>& frames,
                  std::size_t batch, std::uint64_t scramble_seed,
                  std::uint64_t seed, Tracer& tracer, Metrics& m,
                  Tally& tally);

/// pipeline.* and support.arena.* from a traced pipe rig: `spans` are the
/// tracer's spans of that rig, `wall_s` the rig's lifetime.
void pipeline_metrics(const PipeRig& rig, const std::vector<Span>& spans,
                      const Tracer& tracer, double wall_s, Metrics& m);

/// offload.protocol.* and offload.dispatch.*: the replay set through
/// decode_request_view -> execute -> encode_response_header in process,
/// every reply compared with its golden. Returns the mean in-process
/// µs per request over the set (the base of the server overhead).
double replay_rung(const plfsr::offload::OffloadDispatcher& d,
                   const std::vector<Template>& set, Tracer& tracer,
                   Metrics& m, Tally& tally);

/// offload.server.*: the replay set over one quiet loopback connection to
/// a fresh server process.
void server_rung(const std::vector<Template>& set, double in_process_us,
                 Metrics& m, Tally& tally);

}  // namespace pb
