#include "serve.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <string>

#include "offload/server.hpp"
#include "support/host_threads.hpp"

namespace pb {

using plfsr::offload::kLenBytes;

// --- server process -----------------------------------------------------

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int server_child_main() {
  plfsr::offload::OffloadServer server;  // default options
  if (!server.start()) {
    std::printf("port 0 workers 0\n");
    std::fflush(stdout);
    return 1;
  }
  std::printf("port %u workers %zu\n", static_cast<unsigned>(server.port()),
              plfsr::host_threads());
  std::fflush(stdout);
  const auto report = [&] {
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const double cpu =
        1e6 * static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    const plfsr::FrameArena& req = server.request_arena();
    const plfsr::FrameArena& rep = server.dispatcher().reply_arena();
    std::printf("stats %.0f %.6f %llu %llu %llu %llu %llu %llu\n", cpu,
                process_peak_rss_mb(),
                static_cast<unsigned long long>(server.frames_served()),
                static_cast<unsigned long long>(server.error_replies()),
                static_cast<unsigned long long>(req.heap_allocations()),
                static_cast<unsigned long long>(req.recycles()),
                static_cast<unsigned long long>(rep.heap_allocations()),
                static_cast<unsigned long long>(rep.recycles()));
    std::fflush(stdout);
  };
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "stats") {
      report();
    } else if (line == "quit") {
      server.stop();
      report();
      return 0;
    }
  }
  server.stop();
  return 0;
}

ServerProcess::ServerProcess() {
  int down[2], up[2];
  if (::pipe2(down, O_CLOEXEC) != 0) return;
  if (::pipe2(up, O_CLOEXEC) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    return;
  }
  pid_ = ::fork();
  if (pid_ == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::dup2(down[0], STDIN_FILENO);
    ::dup2(up[1], STDOUT_FILENO);
    char arg0[] = "perfbench";
    char arg1[] = "--server-child";
    char* argv[] = {arg0, arg1, nullptr};
    ::execv("/proc/self/exe", argv);
    ::_exit(127);
  }
  ::close(down[0]);
  ::close(up[1]);
  if (pid_ < 0) {
    ::close(down[1]);
    ::close(up[0]);
    return;
  }
  to_child_ = down[1];
  from_child_ = ::fdopen(up[0], "r");
  unsigned port = 0;
  std::size_t workers = 0;
  if (from_child_ &&
      std::fscanf(from_child_, " port %u workers %zu", &port, &workers) == 2) {
    port_ = static_cast<std::uint16_t>(port);
    workers_ = workers;
  }
}

ServerSample ServerProcess::request(const char* line) {
  ServerSample s;
  if (to_child_ < 0 || !from_child_) return s;
  const std::size_t n = std::strlen(line);
  if (::write(to_child_, line, n) != static_cast<ssize_t>(n)) return s;
  double cpu = 0, rss_mb = 0;
  unsigned long long v[6] = {};
  if (std::fscanf(from_child_, " stats %lf %lf %llu %llu %llu %llu %llu %llu",
                  &cpu, &rss_mb, &v[0], &v[1], &v[2], &v[3], &v[4],
                  &v[5]) != 8)
    return s;
  s.ok = true;
  s.cpu_us = cpu;
  s.peak_rss_mb = rss_mb;
  s.frames_served = v[0];
  s.error_replies = v[1];
  s.request_heap = v[2];
  s.request_recycles = v[3];
  s.reply_heap = v[4];
  s.reply_recycles = v[5];
  return s;
}

ServerSample ServerProcess::sample() { return request("stats\n"); }

ServerSample ServerProcess::stop() {
  if (pid_ <= 0) return final_;
  final_ = request("quit\n");
  if (to_child_ >= 0) ::close(to_child_);
  to_child_ = -1;
  if (from_child_) std::fclose(from_child_);
  from_child_ = nullptr;
  // The child exits after its drain; give it a bounded time, then kill.
  for (int i = 0; i < 200; ++i) {
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      return final_;
    }
    ::usleep(25000);
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  return final_;
}

ServerProcess::~ServerProcess() { stop(); }

// --- load client --------------------------------------------------------

LoadClient::LoadClient(const std::vector<Template>& pool,
                       const std::vector<std::uint32_t>& order,
                       std::size_t connections, std::size_t depth,
                       Tracer* tracer)
    : pool_(pool),
      order_(order),
      depth_(depth),
      tracer_(tracer),
      conns_(connections) {
  if (tracer_) span_request_ = tracer_->intern("client.request");
}

void LoadClient::connect(std::uint16_t port) {
  for (Conn& c : conns_) {
    c.sock = plfsr::offload::connect_tcp("127.0.0.1", port, 5000);
    if (!c.sock.valid()) {
      fail(c);
      continue;
    }
    plfsr::offload::set_nodelay(c.sock.fd(), true);
    plfsr::offload::set_nonblocking(c.sock.fd(), true);
  }
  for (Conn& c : conns_) fill(c);
  last_progress_ = now_ns();
}

void LoadClient::fail(Conn& c) {
  if (c.failed) return;
  report_failure("serve: connection failed with " +
                 std::to_string(c.pending.size()) + " requests in flight");
  c.failed = true;
  ++io_errors_;
  lost_ += c.pending.size();
  c.pending.clear();
}

bool LoadClient::live() const {
  for (const Conn& c : conns_)
    if (!c.failed && (issuing_ || !c.pending.empty())) return true;
  return false;
}

void LoadClient::fill(Conn& c) {
  while (issuing_ && !c.failed && c.pending.size() < depth_) {
    const std::uint32_t t = order_[next_seq_ % order_.size()];
    const std::vector<std::uint8_t>& req = pool_[t].req;
    c.out.insert(c.out.end(), req.begin(), req.end());
    c.pending.push_back({t, next_seq_++, now_ns()});
  }
}

void LoadClient::on_reply(Conn& c, const std::uint8_t* p, std::size_t n) {
  const Pending q = c.pending.front();
  c.pending.pop_front();
  const std::int64_t t = now_ns();
  const std::vector<std::uint8_t>& want = pool_[q.tmpl].golden;
  ++checked_;
  if (n != want.size() || std::memcmp(p, want.data(), n) != 0) {
    ++mismatches_;
    report_failure("serve: reply to " + pool_[q.tmpl].label +
                   " differs from its golden (status " +
                   std::to_string(n > kLenBytes ? p[kLenBytes] : -1) +
                   ", " + std::to_string(n) + " bytes)");
  }
  ++c.completed;
  done_.push_back({q.issued_ns, t, q.tmpl});
  if (tracer_) tracer_->record(span_request_, kNoParent, q.seq, q.issued_ns, t);
}

bool LoadClient::step(int timeout_ms) {
  std::vector<pollfd> pfds;
  std::vector<Conn*> polled;
  for (Conn& c : conns_) {
    if (c.failed) continue;
    short ev = 0;
    if (c.out_off < c.out.size()) ev |= POLLOUT;
    if (!c.pending.empty()) ev |= POLLIN;
    if (ev == 0) continue;
    pfds.push_back({c.sock.fd(), ev, 0});
    polled.push_back(&c);
  }
  if (pfds.empty()) return false;
  const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (rc < 0 && errno != EINTR) {
    for (Conn* c : polled) fail(*c);
    return false;
  }
  const std::int64_t now = now_ns();
  if (rc <= 0) {
    // No progress for 10 s: whatever is outstanding is lost.
    if (now - last_progress_ > 10'000'000'000LL) {
      for (Conn* c : polled) fail(*c);
      return false;
    }
    return true;
  }
  last_progress_ = now;
  for (std::size_t i = 0; i < pfds.size(); ++i) {
    Conn& c = *polled[i];
    const short re = pfds[i].revents;
    if (re == 0) continue;
    if (re & (POLLERR | POLLNVAL)) {
      fail(c);
      continue;
    }
    if (re & POLLOUT) {
      while (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.sock.fd(), c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        fail(c);
        break;
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    if (c.failed || (re & (POLLIN | POLLHUP)) == 0) continue;
    std::uint8_t buf[16384];
    for (;;) {
      const ssize_t n = ::recv(c.sock.fd(), buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.insert(c.in.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      fail(c);  // EOF or a hard error with replies outstanding
      break;
    }
    std::size_t off = 0;
    while (c.in.size() - off >= kLenBytes) {
      const std::uint32_t blen =
          static_cast<std::uint32_t>(c.in[off]) |
          (static_cast<std::uint32_t>(c.in[off + 1]) << 8) |
          (static_cast<std::uint32_t>(c.in[off + 2]) << 16) |
          (static_cast<std::uint32_t>(c.in[off + 3]) << 24);
      if (c.in.size() - off < kLenBytes + blen) break;
      if (c.pending.empty()) {
        ++mismatches_;
        report_failure("serve: unsolicited reply");
        fail(c);
        break;
      }
      on_reply(c, c.in.data() + off, kLenBytes + blen);
      off += kLenBytes + blen;
    }
    if (off > 0) c.in.erase(c.in.begin(), c.in.begin() + off);
    fill(c);
  }
  return true;
}

void LoadClient::warm_up(std::uint64_t replies) {
  const auto ready = [&] {
    if (checked_ < replies) return false;
    for (const Conn& c : conns_)
      if (!c.failed && c.completed == 0) return false;
    return true;
  };
  while (!ready())
    if (!live() || !step(100)) return;
}

ServeWindow LoadClient::run(double seconds, int subwindows,
                            ServerProcess& server) {
  const std::size_t first = done_.size();
  const SubWindows win(now_ns(), seconds, subwindows);
  std::vector<double> cpu{server.sample().cpu_us};
  while (static_cast<int>(cpu.size()) <= subwindows) {
    const std::int64_t next = win.bound(static_cast<int>(cpu.size()));
    const std::int64_t now = now_ns();
    if (now >= next) {
      cpu.push_back(server.sample().cpu_us);
      continue;
    }
    const int wait_ms = static_cast<int>((next - now) / 1'000'000) + 1;
    if (!live() || !step(wait_ms < 50 ? wait_ms : 50)) break;
  }
  WindowLatency latency(subwindows);
  std::vector<std::uint64_t> replies(subwindows, 0);
  for (std::size_t i = first; i < done_.size(); ++i) {
    const Completion& c = done_[i];
    const int s = win.index(c.done_ns);
    if (s < 0) continue;
    ++replies[s];
    latency.add_ns(s, c.done_ns - c.issued_ns);
  }
  ServeWindow w;
  w.latency = latency.percentiles();
  win.summarize(replies, cpu, w.sub_rates, w.sub_cpu_us);
  return w;
}

void LoadClient::drain() {
  issuing_ = false;
  while (live())
    if (!step(100)) break;
}

Tally LoadClient::tally() const {
  Tally t;
  t.attempted = checked_ + lost_;
  t.failed = mismatches_ + lost_ + io_errors_;
  return t;
}

}  // namespace pb
