// The serve side: an OffloadServer (default options) in its own process,
// and a single-threaded closed-loop load generator over loopback TCP
// that checks every reply byte for byte against its golden.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "offload/net.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace pb {

/// Counters the server process reports about itself.
struct ServerSample {
  bool ok = false;
  double cpu_us = 0;       ///< user + system CPU of the server process
  double peak_rss_mb = 0;
  std::uint64_t frames_served = 0;
  std::uint64_t error_replies = 0;
  std::uint64_t request_heap = 0, request_recycles = 0;
  std::uint64_t reply_heap = 0, reply_recycles = 0;
};

/// Restrict this process, and every thread and process it starts later, to
/// the highest-numbered CPU it may run on. Returns that CPU, or -1 when the
/// affinity cannot be read or set.
int pin_to_one_cpu();

/// Entry point of the server process (`perfbench --server-child`): serve
/// on an ephemeral loopback port, announce it on stdout, then answer
/// "stats" and "quit" lines from stdin. EOF on stdin also quits.
int server_child_main();

/// Parent-side handle of the server process. The destructor stops it
/// and reaps it.
class ServerProcess {
 public:
  ServerProcess();
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool ok() const { return port_ != 0; }
  std::uint16_t port() const { return port_; }
  std::size_t workers() const { return workers_; }

  ServerSample sample();
  /// Graceful stop; returns the final counters.
  ServerSample stop();

 private:
  ServerSample request(const char* line);

  pid_t pid_ = -1;
  int to_child_ = -1;
  std::FILE* from_child_ = nullptr;
  std::uint16_t port_ = 0;
  std::size_t workers_ = 0;
  ServerSample final_;
};

/// One completed request.
struct Completion {
  std::int64_t issued_ns = 0;
  std::int64_t done_ns = 0;
  std::uint32_t tmpl = 0;
};

/// What one timed serve window measured.
struct ServeWindow {
  std::vector<double> sub_rates;   ///< verified replies/s per sub-window
  std::vector<double> sub_cpu_us;  ///< server CPU µs/reply per sub-window
  Percentiles latency;
};

/// Closed-loop load generator: `connections` sockets, each keeping
/// `depth` requests in flight; request k is pool[order[k % size]].
class LoadClient {
 public:
  LoadClient(const std::vector<Template>& pool,
             const std::vector<std::uint32_t>& order, std::size_t connections,
             std::size_t depth, Tracer* tracer);

  /// Open every connection (a failure counts against the tally).
  void connect(std::uint16_t port);
  /// Issue until `replies` verified replies have arrived and every
  /// connection has completed at least one request (or none can).
  void warm_up(std::uint64_t replies);
  /// Closed loop for `seconds`; the server's CPU is sampled at every
  /// sub-window boundary.
  ServeWindow run(double seconds, int subwindows, ServerProcess& server);
  /// Stop issuing and collect the replies still in flight.
  void drain();

  /// Every completion since construction.
  const std::vector<Completion>& completions() const { return done_; }
  Tally tally() const;

 private:
  struct Pending {
    std::uint32_t tmpl;
    std::uint64_t seq;
    std::int64_t issued_ns;
  };
  struct Conn {
    plfsr::offload::Socket sock;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::vector<std::uint8_t> in;
    std::deque<Pending> pending;
    std::uint64_t completed = 0;
    bool failed = false;
  };

  void fill(Conn& c);
  /// One poll round; false when nothing can progress any more.
  bool step(int timeout_ms);
  void on_reply(Conn& c, const std::uint8_t* p, std::size_t n);
  void fail(Conn& c);
  bool live() const;

  const std::vector<Template>& pool_;
  const std::vector<std::uint32_t>& order_;
  std::size_t depth_;
  Tracer* tracer_;
  std::uint32_t span_request_ = 0;
  std::vector<Conn> conns_;
  std::uint64_t next_seq_ = 0;
  bool issuing_ = true;
  std::int64_t last_progress_ = 0;
  std::vector<Completion> done_;
  std::uint64_t checked_ = 0, mismatches_ = 0, io_errors_ = 0, lost_ = 0;
};

}  // namespace pb
