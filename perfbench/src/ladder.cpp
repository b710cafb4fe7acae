#include "ladder.hpp"

#include <cstring>
#include <map>
#include <span>
#include <string>

#include "crc/clmul_crc.hpp"
#include "crc/crc_spec.hpp"
#include "crc/engine.hpp"
#include "crc/engine_registry.hpp"
#include "crc/slicing_crc.hpp"
#include "crc/table_crc.hpp"
#include "fec/fec_codec.hpp"
#include "fec/fec_registry.hpp"
#include "lfsr/catalog.hpp"
#include "offload/protocol.hpp"
#include "pipeline/stages.hpp"
#include "scrambler/block_scrambler.hpp"
#include "serve.hpp"

namespace pb {

namespace {

using plfsr::FrameView;

/// Wall-clock budget of one rung's repetitions.
constexpr double kRungSeconds = 0.3;

/// Repeat `body` (one untimed warm call first) until the budget is spent
/// and at least five timed repetitions exist; the median rep in ns. Each
/// repetition is recorded as a span named `span`.
template <typename F>
double median_rep_ns(Tracer& tracer, const char* span, F&& body) {
  const std::uint32_t name = tracer.intern(span);
  body();
  std::vector<double> reps;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(kRungSeconds * 1e9);
  while (reps.size() < 5 || now_ns() < end) {
    const std::int64_t t0 = now_ns();
    body();
    const std::int64_t t1 = now_ns();
    tracer.record(name, kNoParent, reps.size(), t0, t1);
    reps.push_back(static_cast<double>(t1 - t0));
  }
  return median(reps);
}

/// The handle's batch path without the virtual call: what a caller that
/// names the concrete engine gets.
template <typename E>
void direct_many(const E& e, std::span<const FrameView> f,
                 std::span<std::uint64_t> out) {
  if constexpr (requires { e.compute_many(f, out); }) {
    e.compute_many(f, out);
  } else if constexpr (plfsr::BatchLinearEngine<E>) {
    for (std::size_t i = 0; i < f.size(); ++i) out[i] = e.initial_state();
    e.absorb_many(out, f);
    for (std::size_t i = 0; i < f.size(); ++i) out[i] = e.finalize(out[i]);
  } else {
    for (std::size_t i = 0; i < f.size(); ++i)
      out[i] = e.finalize(e.absorb(e.initial_state(), f[i]));
  }
}

/// Time handle and direct engine on the same batches, alternating reps.
template <typename E>
void crc_pair(const E& direct, const plfsr::CrcEngineHandle& handle,
              const std::vector<std::vector<FrameView>>& batches,
              std::size_t frames, std::size_t bytes, Tracer& tracer,
              Metrics& m, Tally& tally) {
  // Both must agree with the table engine on every frame.
  const plfsr::TableCrc table(handle.spec());
  std::vector<std::uint64_t> a, b;
  for (const auto& batch : batches) {
    a.resize(batch.size());
    b.resize(batch.size());
    handle.compute_many(batch, a);
    direct_many(direct, batch, b);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::uint64_t want = table.compute(batch[i]);
      tally.check(a[i] == want, "crc rung: handle differs from table");
      tally.check(b[i] == want, "crc rung: direct engine differs from table");
    }
  }
  std::vector<double> h_reps, d_reps;
  std::vector<std::uint64_t> out;
  const std::uint32_t h_span = tracer.intern("kernel.crc.handle");
  const std::uint32_t d_span = tracer.intern("kernel.crc.direct");
  const auto pass = [&](bool use_handle) {
    const std::int64_t t0 = now_ns();
    for (const auto& batch : batches) {
      out.resize(batch.size());
      if (use_handle)
        handle.compute_many(batch, out);
      else
        direct_many(direct, batch, out);
    }
    const std::int64_t t1 = now_ns();
    tracer.record(use_handle ? h_span : d_span, kNoParent, h_reps.size(), t0,
                  t1);
    return static_cast<double>(t1 - t0);
  };
  pass(true);
  pass(false);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(kRungSeconds * 1e9);
  while (h_reps.size() < 5 || now_ns() < end) {
    h_reps.push_back(pass(true));
    d_reps.push_back(pass(false));
  }
  const double h = median(h_reps), d = median(d_reps);
  m.add("crc.compute_many_ns_per_frame", h / static_cast<double>(frames), "ns");
  m.add("crc.direct_ns_per_frame", d / static_cast<double>(frames), "ns");
  m.add("crc.handle_ratio", d / h, "ratio");
  m.add("crc.gb_per_s", static_cast<double>(bytes) / h, "GB/s");
}

/// Frames the kernel rungs use: the workload's frames up to a byte cap,
/// so a pool with 64 KiB payloads keeps the rung short.
std::vector<const std::vector<std::uint8_t>*> capped(
    const std::vector<std::vector<std::uint8_t>>& frames, std::size_t cap) {
  std::vector<const std::vector<std::uint8_t>*> out;
  std::size_t total = 0;
  for (const auto& f : frames) {
    if (total + f.size() > cap && !out.empty()) break;
    out.push_back(&f);
    total += f.size();
  }
  return out;
}

void fec_rungs(const std::vector<const std::vector<std::uint8_t>*>& frames,
               std::uint64_t seed, Tracer& tracer, Metrics& m, Tally& tally) {
  const plfsr::FecCodecHandle rs =
      plfsr::FecRegistry::instance().best_for(plfsr::fec::rs_204_188());
  const plfsr::FecCodecHandle bch =
      plfsr::FecRegistry::instance().best_for(plfsr::fec::bch_255_t2());
  struct Block {
    std::span<const std::uint8_t> data;
    std::vector<std::uint8_t> code, corrupted, work;
  };
  const auto cut = [&](const plfsr::FecCodec& c, std::size_t max_blocks) {
    std::vector<Block> blocks;
    for (const auto* f : frames)
      for (std::size_t off = 0; off < f->size() && blocks.size() < max_blocks;
           off += c.data_bytes()) {
        Block b;
        b.data = std::span<const std::uint8_t>(f->data() + off,
                                               std::min(c.data_bytes(), f->size() - off));
        b.code.resize(b.data.size() + c.parity_bytes());
        blocks.push_back(std::move(b));
      }
    return blocks;
  };

  std::vector<Block> rsb = cut(*rs, 128);
  const double enc = median_rep_ns(tracer, "kernel.rs_encode", [&] {
    for (Block& b : rsb) rs->encode_block(b.data, b.code);
  });
  SplitMix rng(seed ^ 0xFECull);
  for (Block& b : rsb) {
    b.corrupted = b.code;
    b.corrupted[rng.below(b.corrupted.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    b.work.resize(b.code.size());
  }
  for (Block& b : rsb) {  // every decode must recover its block
    std::memcpy(b.work.data(), b.corrupted.data(), b.work.size());
    const plfsr::FecDecodeResult r = rs->decode_block(b.work);
    tally.check(r.ok && std::memcmp(b.work.data(), b.data.data(),
                                    b.data.size()) == 0,
                "fec rung: RS decode did not recover a one-byte error");
  }
  const double dec = median_rep_ns(tracer, "kernel.rs_decode", [&] {
    for (Block& b : rsb) {
      std::memcpy(b.work.data(), b.corrupted.data(), b.work.size());
      rs->decode_block(b.work);
    }
  });
  std::vector<Block> bchb = cut(*bch, 256);
  const double benc = median_rep_ns(tracer, "kernel.bch_encode", [&] {
    for (Block& b : bchb) bch->encode_block(b.data, b.code);
  });
  m.add("fec.rs_encode_us_per_block", enc / 1e3 / static_cast<double>(rsb.size()), "us");
  m.add("fec.rs_decode_us_per_block", dec / 1e3 / static_cast<double>(rsb.size()), "us");
  m.add("fec.bch_encode_us_per_block", benc / 1e3 / static_cast<double>(bchb.size()), "us");
}

}  // namespace

void kernel_rungs(const std::vector<std::vector<std::uint8_t>>& frames,
                  std::size_t batch, std::uint64_t scramble_seed,
                  std::uint64_t seed, Tracer& tracer, Metrics& m,
                  Tally& tally) {
  const std::vector<const std::vector<std::uint8_t>*> use =
      capped(frames, std::size_t{4} << 20);

  // scrambler: the stage's cached-keystream apply against the
  // dispatcher's reseed + process, frame by frame, same frames.
  const plfsr::Gf2Poly poly = plfsr::catalog::scrambler_80211();
  plfsr::ScrambleStage stage(poly, scramble_seed);
  plfsr::BlockScrambler block(poly, scramble_seed);
  std::vector<std::vector<std::uint8_t>> a, b;
  std::size_t bytes = 0;
  for (const auto* f : use) {
    a.push_back(*f);
    b.push_back(*f);
    bytes += f->size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    stage.apply(a[i]);
    block.reseed(scramble_seed);
    block.process(b[i]);
    tally.check(a[i] == b[i], "scrambler rung: apply differs from block");
  }
  const double frames_n = static_cast<double>(a.size());
  const double apply = median_rep_ns(tracer, "kernel.scramble_apply", [&] {
    for (auto& f : a) stage.apply(f);
  });
  const double blk = median_rep_ns(tracer, "kernel.scramble_block", [&] {
    for (auto& f : b) {
      block.reseed(scramble_seed);
      block.process(f);
    }
  });
  m.add("scrambler.apply_ns_per_frame", apply / frames_n, "ns");
  m.add("scrambler.block_ns_per_frame", blk / frames_n, "ns");

  // crc: the batches FcsStage sees (scrambled frames, the workload's
  // batch size), through the handle and through the concrete engine.
  // An even number of timed passes above leaves `a` scrambled or not;
  // re-derive the scrambled bytes so the CRC input is well defined.
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = *use[i];
    stage.apply(a[i]);
  }
  std::vector<std::vector<FrameView>> batches;
  for (std::size_t i = 0; i < a.size(); i += batch) {
    std::vector<FrameView> v;
    for (std::size_t j = i; j < a.size() && j < i + batch; ++j)
      v.emplace_back(a[j]);
    batches.push_back(std::move(v));
  }
  const plfsr::CrcSpec spec = plfsr::crcspec::crc32_ethernet();
  const plfsr::EngineRegistry& reg = plfsr::EngineRegistry::instance();
  const plfsr::CrcEngineHandle handle = reg.best_for(spec);
  const std::string best = reg.best_name_for(spec);
  if (best == "clmul")
    crc_pair(plfsr::ClmulCrc(spec), handle, batches, a.size(), bytes, tracer,
             m, tally);
  else if (best == "slicing8")
    crc_pair(plfsr::SlicingBy8Crc(spec), handle, batches, a.size(), bytes,
             tracer, m, tally);
  else if (best == "table")
    crc_pair(plfsr::TableCrc(spec), handle, batches, a.size(), bytes, tracer,
             m, tally);
  else  // an engine this rung has no concrete type for: handle vs itself
    crc_pair(handle, handle, batches, a.size(), bytes, tracer, m, tally);

  fec_rungs(use, seed, tracer, m, tally);
}

void pipeline_metrics(const PipeRig& rig, const std::vector<Span>& spans,
                      const Tracer& tracer, double wall_s, Metrics& m) {
  const std::map<std::string, SpanTotals> st = self_times(spans, tracer);
  const auto self = [&](const std::string& name) {
    const auto it = st.find(name);
    return it == st.end() ? 0.0 : it->second.self_ns;
  };
  const double frames = static_cast<double>(rig.frames_checked());
  for (const plfsr::StageStats& s : rig.pipeline().stats()) {
    const std::string p = "pipeline." + s.name;
    m.add(p + ".self_ns_per_frame", self("stage." + s.name) / frames, "ns");
    m.add(p + ".busy_share", static_cast<double>(s.busy_ns) / 1e9 / wall_s,
          "ratio");
    m.add(p + ".pop_stalls", static_cast<double>(s.pop_stalls), "count");
    m.add(p + ".push_stalls", static_cast<double>(s.push_stalls), "count");
    m.add(p + ".queue_high_water", static_cast<double>(s.queue_high_water),
          "count");
  }
  m.add("pipeline.producer_stalls",
        static_cast<double>(rig.pipeline().producer_stalls()), "count");
  m.add("pipeline.executor_ns_per_frame", self("pipeline.push") / frames, "ns");

  const plfsr::FrameArena& ar = rig.arena();
  const double acquires = static_cast<double>(ar.acquires());
  const auto acq = st.find("arena.acquire");
  m.add("support.arena.acquire_ns",
        acq == st.end() ? 0.0 : acq->second.total_ns / acquires, "ns");
  m.add("support.arena.recycle_ratio",
        static_cast<double>(ar.recycles()) / acquires, "ratio");
  m.add("support.arena.heap_allocations",
        static_cast<double>(ar.heap_allocations()), "count");
  m.add("support.arena.acquire_stalls",
        static_cast<double>(ar.acquire_stalls()), "count");
}

double replay_rung(const plfsr::offload::OffloadDispatcher& d,
                   const std::vector<Template>& set, Tracer& tracer,
                   Metrics& m, Tally& tally) {
  namespace off = plfsr::offload;
  const std::uint32_t s_req = tracer.intern("replay.request");
  const std::uint32_t s_dec = tracer.intern("protocol.decode");
  const std::uint32_t s_exe = tracer.intern("dispatch.execute");
  const std::uint32_t s_enc = tracer.intern("protocol.encode_header");
  constexpr int kOps = 6;
  std::uint64_t seq = 0;
  struct Rep {
    double dec = 0, enc = 0, total = 0;
    double exe[kOps] = {};
    std::size_t n[kOps] = {};
  };
  const auto pass = [&] {
    Rep r;
    for (const Template& t : set) {
      const std::span<const std::uint8_t> body(t.req.data() + off::kLenBytes,
                                               t.req.size() - off::kLenBytes);
      const std::int64_t t0 = now_ns();
      off::RequestView view;
      const off::Status st = off::decode_request_view(body, view);
      const std::int64_t t1 = now_ns();
      const off::WireReply reply = d.execute(view);
      const std::int64_t t2 = now_ns();
      const std::vector<std::uint8_t> hdr = off::encode_response_header(
          reply.status, reply.op, reply.result, reply.payload.size());
      const std::int64_t t3 = now_ns();
      tracer.record(s_dec, s_req, seq, t0, t1);
      tracer.record(s_exe, s_req, seq, t1, t2);
      tracer.record(s_enc, s_req, seq, t2, t3);
      tracer.record(s_req, kNoParent, seq, t0, t3);
      ++seq;
      const int op = static_cast<int>(t.op);
      r.dec += static_cast<double>(t1 - t0);
      r.exe[op] += static_cast<double>(t2 - t1);
      r.enc += static_cast<double>(t3 - t2);
      r.total += static_cast<double>(t3 - t0);
      ++r.n[op];
      tally.check(
          st == off::Status::kOk &&
              hdr.size() + reply.payload.size() == t.golden.size() &&
              std::memcmp(hdr.data(), t.golden.data(), hdr.size()) == 0 &&
              std::memcmp(reply.payload.data(), t.golden.data() + hdr.size(),
                          reply.payload.size()) == 0,
          "replay: reply to " + t.label + " differs from its golden");
    }
    return r;
  };
  pass();  // warms the dispatcher's caches
  std::vector<Rep> reps;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(2 * kRungSeconds * 1e9);
  while (reps.size() < 5 || now_ns() < end) reps.push_back(pass());

  const double n = static_cast<double>(set.size());
  const auto med = [&](auto get) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(get(r));
    return median(v);
  };
  m.add("offload.protocol.decode_ns_per_req", med([&](const Rep& r) { return r.dec / n; }), "ns");
  m.add("offload.protocol.encode_header_ns_per_req", med([&](const Rep& r) { return r.enc / n; }), "ns");
  for (off::Op op : kAllOps) {
    const int i = static_cast<int>(op);
    m.add(std::string("offload.dispatch.") + op_key(op) + "_us_per_req",
          med([&](const Rep& r) { return r.n[i] ? r.exe[i] / 1e3 / static_cast<double>(r.n[i]) : 0.0; }),
          "us");
  }
  return med([&](const Rep& r) { return r.total / 1e3 / n; });
}

void server_rung(const std::vector<Template>& set, double in_process_us,
                 Metrics& m, Tally& tally) {
  std::vector<std::uint32_t> order(set.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  ServerProcess server;
  if (!server.ok()) {
    tally.check(false, "server rung: the server process did not start");
    return;
  }
  LoadClient client(set, order, 1, 1, nullptr);
  client.connect(server.port());
  client.warm_up(2 * set.size());
  const std::size_t first = client.completions().size();
  const ServeWindow w = client.run(1.5, 3, server);
  const std::size_t last = client.completions().size();
  client.drain();
  const ServerSample fin = server.stop();
  tally.add(client.tally());

  std::map<int, LatencyHistogram> rtt;
  for (std::size_t i = first; i < last; ++i) {
    const Completion& c = client.completions()[i];
    rtt[static_cast<int>(set[c.tmpl].op)].add_ns(c.done_ns - c.issued_ns);
  }
  m.add("offload.server.overhead_cpu_us_per_frame",
        median(w.sub_cpu_us) - in_process_us, "us");
  for (plfsr::offload::Op op : kAllOps)
    m.add(std::string("offload.server.rtt_us.") + op_key(op),
          rtt[static_cast<int>(op)].percentiles().p50, "us");
  m.add("offload.server.request_arena.heap_allocations",
        static_cast<double>(fin.request_heap), "count");
  m.add("offload.server.request_arena.recycles",
        static_cast<double>(fin.request_recycles), "count");
  m.add("offload.server.reply_arena.heap_allocations",
        static_cast<double>(fin.reply_heap), "count");
  m.add("offload.server.reply_arena.recycles",
        static_cast<double>(fin.reply_recycles), "count");
  m.add("offload.server.frames_served", static_cast<double>(fin.frames_served),
        "count");
  m.add("offload.server.error_replies", static_cast<double>(fin.error_replies),
        "count");
  tally.check(fin.ok && fin.error_replies == 0,
              "server rung: error replies or no final counters");
}

}  // namespace pb
