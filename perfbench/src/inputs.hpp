// Workload catalogue and the seeded inputs each workload runs on.
//
// Everything a run feeds the system comes from --seed: frame payloads,
// the order frames and requests are issued in, scrambler seeds and the
// byte a FEC-decode request has corrupted in each block. The *mix* of a
// workload (which ops, which sizes, how often) is fixed, so two seeds
// exercise the same work on different bytes in a different order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "offload/dispatch.hpp"
#include "offload/protocol.hpp"

namespace pb {

/// One workload. Pipe workloads stream frames through the in-process
/// scramble -> FCS -> golden-sink graph; serve workloads drive the
/// loopback OffloadServer.
struct WorkloadSpec {
  std::string name;
  bool serve = false;
  // pipe
  std::size_t frame_bytes = 0;
  std::size_t batch = 0;
  std::size_t payloads = 0;  ///< distinct seeded payloads cycled through
  // serve
  std::size_t connections = 0;
  std::size_t depth = 0;
  /// Run the whole workload (client and server process) on one CPU.
  bool one_cpu = false;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// The scrambler and CRC the pipe graph runs (also the names of the
/// requests derived from pipe frames).
inline constexpr const char* kWifiPoly = "802.11 (x7+x4+1)";
inline constexpr const char* kEthernetCrc = "CRC-32/ETHERNET";
inline constexpr const char* kRsCode = "RS(204,188)";
inline constexpr const char* kBchCode = "BCH(255,239,t=2)";

/// A seeded register seed for a scrambler of `degree` (never zero).
std::uint64_t scrambler_seed(std::uint64_t raw, unsigned degree);

// --- pipe inputs --------------------------------------------------------

struct PipeInputs {
  std::uint64_t scramble_seed = 0;  ///< 802.11 register seed
  std::vector<std::vector<std::uint8_t>> payloads;
  /// Frame i carries payloads[order[i % order.size()]].
  std::vector<std::uint32_t> order;
  /// Per payload: CRC-32/ETHERNET of the payload scrambled by the
  /// bit-serial reference scrambler, computed with the "table" engine —
  /// the serial reference composition, never the engines under test.
  std::vector<std::uint64_t> golden_crc;

  std::size_t payload_of(std::uint64_t frame_id) const {
    return order[frame_id % order.size()];
  }
};

/// Payloads, order and scrambler seed (no goldens: those are set-up work).
PipeInputs make_pipe_inputs(const WorkloadSpec& w, std::uint64_t seed);
void compute_pipe_goldens(PipeInputs& in);

// --- requests -----------------------------------------------------------

/// A request with its golden reply, both as full wire images.
struct Template {
  std::string label;  ///< e.g. "crc32c/65536"
  plfsr::offload::Op op = plfsr::offload::Op::kPing;
  std::vector<std::uint8_t> data;  ///< source bytes the request was built on
  std::vector<std::uint8_t> req;
  std::vector<std::uint8_t> golden;
};

/// Metric key of an op: ping, crc, scramble, fec_encode, fec_decode,
/// pipeline.
const char* op_key(plfsr::offload::Op op);
inline constexpr plfsr::offload::Op kAllOps[] = {
    plfsr::offload::Op::kPing,      plfsr::offload::Op::kCrc,
    plfsr::offload::Op::kScramble,  plfsr::offload::Op::kFecEncode,
    plfsr::offload::Op::kFecDecode, plfsr::offload::Op::kPipeline};

struct ServeInputs {
  std::vector<Template> pool;
  /// Request k is pool[order[k % order.size()]]: whole seeded shuffles of
  /// the pool back to back, so every stretch of pool.size() requests has
  /// the same op x size composition whatever the seed.
  std::vector<std::uint32_t> order;
};

/// The serve workload's request pool (requests only; goldens empty) and
/// its order. `d` is used to FEC-encode the payloads that decode
/// requests carry.
ServeInputs make_serve_requests(const WorkloadSpec& w, std::uint64_t seed,
                                const plfsr::offload::OffloadDispatcher& d);

/// The pipe graph's inputs made of a serve pool's payloads up to MTU size
/// (the pipeline rung of a serve workload's traced run; no goldens).
PipeInputs pipe_inputs_from(const ServeInputs& serve, std::uint64_t seed);

/// One request per op (ping, CRC-32/ETHERNET, 802.11 scramble, RS(204,188)
/// encode, RS decode with one corrupted byte per block, and the
/// scramble -> CRC chain of the pipe graph) built on `data`.
std::vector<Template> derived_requests(
    const std::vector<std::uint8_t>& data, std::uint64_t scramble_seed,
    std::uint64_t corrupt_seed, const plfsr::offload::OffloadDispatcher& d);

/// Fill every template's golden reply with the dispatcher's reply; a
/// chain's golden must also equal the serial composition of its ops.
/// Returns false (with a message on stderr) when a golden cannot be
/// made — the run then fails before timing.
bool attach_goldens(std::vector<Template>& ts,
                    const plfsr::offload::OffloadDispatcher& d);

/// The workload's "replay set": the requests the per-layer ladder runs
/// in process and over a quiet loopback connection. It covers all six
/// ops on the workload's own bytes: serve workloads take their pool and
/// add derived requests for ops the mix lacks; pipe workloads derive all
/// six from their first payloads (the chain is the pipe graph itself).
std::vector<Template> replay_set(const WorkloadSpec& w, std::uint64_t seed,
                                 const PipeInputs* pipe,
                                 const ServeInputs* serve,
                                 const plfsr::offload::OffloadDispatcher& d);

}  // namespace pb
