#include "inputs.hpp"

#include <algorithm>
#include <iostream>

#include "crc/crc_spec.hpp"
#include "crc/table_crc.hpp"
#include "lfsr/catalog.hpp"
#include "scrambler/scrambler.hpp"
#include "support/bitstream.hpp"
#include "util.hpp"

namespace pb {

using plfsr::offload::Op;
using plfsr::offload::OffloadDispatcher;
using plfsr::offload::PipelineOp;
using plfsr::offload::Request;
using plfsr::offload::Response;
using plfsr::offload::Status;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> w(4);
    w[0].name = "pipe_small";
    w[0].frame_bytes = 64;
    w[0].batch = 256;
    w[0].payloads = 4096;
    w[1].name = "pipe_mtu";
    w[1].frame_bytes = 1518;
    w[1].batch = 64;
    w[1].payloads = 512;
    w[2].name = "serve_mix";
    w[2].serve = true;
    w[2].connections = 4;
    w[2].depth = 4;
    w[3].name = "serve_small";
    w[3].serve = true;
    w[3].connections = 1;
    w[3].depth = 1;
    w[3].one_cpu = true;
    return w;
  }();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::uint64_t scrambler_seed(std::uint64_t raw, unsigned degree) {
  const std::uint64_t mask = (std::uint64_t{1} << degree) - 1;
  const std::uint64_t s = raw & mask;
  return s == 0 ? 1 : s;
}

const char* op_key(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kCrc: return "crc";
    case Op::kScramble: return "scramble";
    case Op::kFecEncode: return "fec_encode";
    case Op::kFecDecode: return "fec_decode";
    case Op::kPipeline: return "pipeline";
  }
  return "unknown";
}

// --- pipe ---------------------------------------------------------------

PipeInputs make_pipe_inputs(const WorkloadSpec& w, std::uint64_t seed) {
  SplitMix rng(seed ^ 0x51BE5EEDull);
  PipeInputs in;
  in.scramble_seed = scrambler_seed(rng.next(), 7);
  in.payloads.reserve(w.payloads);
  for (std::size_t i = 0; i < w.payloads; ++i)
    in.payloads.push_back(rng.bytes(w.frame_bytes));
  in.order = rng.shuffled_cycles(w.payloads, 16);
  return in;
}

PipeInputs pipe_inputs_from(const ServeInputs& serve, std::uint64_t seed) {
  SplitMix rng(seed ^ 0x9109ull);
  PipeInputs in;
  in.scramble_seed = scrambler_seed(rng.next(), 7);
  for (const Template& t : serve.pool)
    if (!t.data.empty() && t.data.size() <= 1518) in.payloads.push_back(t.data);
  in.order = rng.shuffled_cycles(in.payloads.size(), 16);
  return in;
}

void compute_pipe_goldens(PipeInputs& in) {
  const plfsr::TableCrc table(plfsr::crcspec::crc32_ethernet());
  plfsr::AdditiveScrambler serial(plfsr::catalog::scrambler_80211(),
                                  in.scramble_seed);
  in.golden_crc.clear();
  for (const std::vector<std::uint8_t>& p : in.payloads) {
    serial.reseed(in.scramble_seed);
    const std::vector<std::uint8_t> scrambled =
        serial.process(plfsr::BitStream::from_bytes_lsb_first(p))
            .to_bytes_lsb_first();
    in.golden_crc.push_back(table.compute(scrambled));
  }
}

// --- requests -----------------------------------------------------------

namespace {

Template single(std::string label, Op op, std::string name,
                std::uint64_t param, std::vector<std::uint8_t> data) {
  Request r;
  r.op = op;
  r.name = std::move(name);
  r.param = param;
  r.payload = data;
  Template t;
  t.label = std::move(label);
  t.op = op;
  t.data = std::move(data);
  t.req = plfsr::offload::encode_request(r);
  return t;
}

Template chain(std::string label, const std::vector<PipelineOp>& ops,
               std::vector<std::uint8_t> data) {
  Template t;
  t.label = std::move(label);
  t.op = Op::kPipeline;
  t.req = plfsr::offload::encode_request(
      plfsr::offload::make_pipeline_request(ops, data));
  t.data = std::move(data);
  return t;
}

/// RS(204,188) decode request: the data encoded by the dispatcher, then
/// one seeded byte of every block flipped by a seeded nonzero mask.
Template rs_decode(std::string label, std::vector<std::uint8_t> data,
                   SplitMix& rng, const OffloadDispatcher& d) {
  Request enc;
  enc.op = Op::kFecEncode;
  enc.name = kRsCode;
  enc.payload = data;
  Response code = d.dispatch(enc);
  for (std::size_t block = 0; block < code.payload.size(); block += 204) {
    const std::size_t len =
        std::min<std::size_t>(204, code.payload.size() - block);
    code.payload[block + rng.below(len)] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
  }
  Template t = single(std::move(label), Op::kFecDecode, kRsCode, 0,
                      std::move(code.payload));
  t.data = std::move(data);
  return t;
}

}  // namespace

ServeInputs make_serve_requests(const WorkloadSpec& w, std::uint64_t seed,
                                const OffloadDispatcher& d) {
  SplitMix rng(seed ^ 0x5E7E5EEDull);
  ServeInputs in;
  const bool mix = w.name == "serve_mix";
  // Variants per kind: each kind appears this many times in the pool,
  // each on its own seeded payload.
  const int variants = mix ? 4 : 16;
  for (int v = 0; v < variants; ++v) {
    const auto wifi = [&] { return scrambler_seed(rng.next(), 7); };
    in.pool.push_back(single("ping/64", Op::kPing, "", 0, rng.bytes(64)));
    in.pool.push_back(
        single("crc32/64", Op::kCrc, kEthernetCrc, 0, rng.bytes(64)));
    in.pool.push_back(single("scramble-wifi/64", Op::kScramble, kWifiPoly,
                             wifi(), rng.bytes(64)));
    {
      const std::uint64_t s = wifi();
      in.pool.push_back(chain("chain-scr-crc/64",
                              {{Op::kScramble, s, kWifiPoly},
                               {Op::kCrc, 0, kEthernetCrc}},
                              rng.bytes(64)));
    }
    if (!mix) continue;
    for (std::size_t n : {std::size_t{1518}, std::size_t{65536}})
      in.pool.push_back(single("crc32/" + std::to_string(n), Op::kCrc,
                               kEthernetCrc, 0, rng.bytes(n)));
    for (std::size_t n : {std::size_t{64}, std::size_t{1518}, std::size_t{65536}})
      in.pool.push_back(single("crc32c/" + std::to_string(n), Op::kCrc,
                               "CRC-32C", 0, rng.bytes(n)));
    for (std::size_t n : {std::size_t{64}, std::size_t{1518}})
      in.pool.push_back(single("crc16/" + std::to_string(n), Op::kCrc,
                               "CRC-16/CCITT-FALSE", 0, rng.bytes(n)));
    in.pool.push_back(single("scramble-wifi/1518", Op::kScramble, kWifiPoly,
                             wifi(), rng.bytes(1518)));
    in.pool.push_back(single("scramble-dvb/1518", Op::kScramble,
                             "DVB (x15+x14+1)",
                             scrambler_seed(rng.next(), 15), rng.bytes(1518)));
    in.pool.push_back(
        single("rs-enc/1504", Op::kFecEncode, kRsCode, 0, rng.bytes(1504)));
    in.pool.push_back(rs_decode("rs-dec/1632", rng.bytes(1504), rng, d));
    in.pool.push_back(
        single("bch-enc/512", Op::kFecEncode, kBchCode, 0, rng.bytes(512)));
    {
      const std::uint64_t s = scrambler_seed(rng.next(), 15);
      in.pool.push_back(chain("chain-scr-crc/1518",
                              {{Op::kScramble, s, "DVB (x15+x14+1)"},
                               {Op::kCrc, 0, "CRC-32C"}},
                              rng.bytes(1518)));
    }
    {
      const std::uint64_t s = scrambler_seed(rng.next(), 7);
      in.pool.push_back(chain("chain-scr-rs/1504",
                              {{Op::kScramble, s, "SONET (x7+x6+1)"},
                               {Op::kFecEncode, 0, kRsCode}},
                              rng.bytes(1504)));
    }
  }
  in.order = rng.shuffled_cycles(in.pool.size(), 64);
  return in;
}

std::vector<Template> derived_requests(const std::vector<std::uint8_t>& data,
                                       std::uint64_t scramble_seed,
                                       std::uint64_t corrupt_seed,
                                       const OffloadDispatcher& d) {
  SplitMix rng(corrupt_seed);
  const std::string n = std::to_string(data.size());
  std::vector<Template> out;
  out.push_back(single("ping/" + n, Op::kPing, "", 0, data));
  out.push_back(single("crc32/" + n, Op::kCrc, kEthernetCrc, 0, data));
  out.push_back(single("scramble-wifi/" + n, Op::kScramble, kWifiPoly,
                       scramble_seed, data));
  out.push_back(single("rs-enc/" + n, Op::kFecEncode, kRsCode, 0, data));
  out.push_back(rs_decode("rs-dec/" + n, data, rng, d));
  out.push_back(chain("chain-scr-crc/" + n,
                      {{Op::kScramble, scramble_seed, kWifiPoly},
                       {Op::kCrc, 0, kEthernetCrc}},
                      data));
  return out;
}

bool attach_goldens(std::vector<Template>& ts, const OffloadDispatcher& d) {
  for (Template& t : ts) {
    if (!t.golden.empty()) continue;
    Request req;
    const std::span<const std::uint8_t> body(t.req.data() + 4,
                                             t.req.size() - 4);
    if (plfsr::offload::decode_request_body(body, req) != Status::kOk) {
      std::cerr << "perfbench: template " << t.label << " does not decode\n";
      return false;
    }
    const Response golden = d.dispatch(req);
    if (golden.status != Status::kOk) {
      std::cerr << "perfbench: template " << t.label << " fails locally: "
                << plfsr::offload::status_name(golden.status) << "\n";
      return false;
    }
    if (t.op == Op::kPipeline) {
      // The chain must equal the serial composition of its ops, each
      // dispatched on its own.
      std::vector<PipelineOp> ops;
      std::span<const std::uint8_t> data;
      if (plfsr::offload::decode_pipeline_ops(req.payload, ops, data) !=
          Status::kOk)
        return false;
      std::vector<std::uint8_t> cur(data.begin(), data.end());
      std::uint64_t last_crc = 0;
      for (const PipelineOp& op : ops) {
        Request r;
        r.op = op.op;
        r.param = op.param;
        r.name = op.name;
        r.payload = cur;
        const Response step = d.dispatch(r);
        if (step.status != Status::kOk) return false;
        if (op.op == Op::kCrc)
          last_crc = step.result;
        else
          cur = step.payload;
      }
      if (golden.payload != cur || golden.result != last_crc) {
        std::cerr << "perfbench: chain " << t.label
                  << " differs from its serial composition\n";
        return false;
      }
    }
    t.golden = plfsr::offload::encode_response(golden);
  }
  return true;
}

std::vector<Template> replay_set(const WorkloadSpec& w, std::uint64_t seed,
                                 const PipeInputs* pipe,
                                 const ServeInputs* serve,
                                 const OffloadDispatcher& d) {
  std::vector<Template> out;
  SplitMix rng(seed ^ 0x2E91A7ull);
  if (!w.serve) {
    // Eight payloads, all six ops each.
    for (std::size_t i = 0; i < 8 && i < pipe->payloads.size(); ++i) {
      std::vector<Template> t = derived_requests(
          pipe->payloads[i], pipe->scramble_seed, rng.next(), d);
      out.insert(out.end(), t.begin(), t.end());
    }
    return out;
  }
  bool have[6] = {};
  for (const Template& t : serve->pool) {
    out.push_back(t);
    have[static_cast<int>(t.op)] = true;
  }
  // Ops the mix lacks are derived from the pool's first payloads.
  for (std::size_t i = 0; i < 8 && i < serve->pool.size(); ++i) {
    const std::vector<Template> t =
        derived_requests(serve->pool[i].data, scrambler_seed(rng.next(), 7),
                         rng.next(), d);
    for (const Template& x : t)
      if (!have[static_cast<int>(x.op)]) out.push_back(x);
  }
  return out;
}

}  // namespace pb
