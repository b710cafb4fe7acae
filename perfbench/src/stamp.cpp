#include "stamp.hpp"

#include <sched.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "crc/crc_spec.hpp"
#include "crc/engine_registry.hpp"
#include "pipeline/pipeline.hpp"
#include "support/cpu_features.hpp"
#include "support/host_threads.hpp"
#include "util.hpp"

extern char** environ;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {

namespace {

/// The SIMD flags the kernels could use, as the kernel reports them.
std::vector<std::string> cpuinfo_flags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::vector<std::string> out;
    std::string f;
    while (words >> f)
      if (f == "avx2" || f == "gfni" || f == "vpclmulqdq" ||
          f == "pclmulqdq" || f == "sse4_1" || f.rfind("avx512", 0) == 0)
        out.push_back(f);
    return out;
  }
  return {};
}

}  // namespace

std::string host_stamp(const std::string& workload, const std::string& commit,
                       std::size_t server_workers) {
  std::ostringstream o;
  o << "{\"workload\": " << json_str(workload)
    << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"host_threads\": " << plfsr::host_threads()
    << ", \"cgroup_quota_cores\": "
    << json_num(plfsr::detail::cgroup_quota_cores()) << ", \"affinity\": [";
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    bool first_cpu = true;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      o << (first_cpu ? "" : ", ") << cpu;
      first_cpu = false;
    }
  }
  o << "], \"cpuinfo_flags\": [";
  const std::vector<std::string> flags = cpuinfo_flags();
  for (std::size_t i = 0; i < flags.size(); ++i)
    o << (i ? ", " : "") << json_str(flags[i]);
  const plfsr::CpuFeatures& cf = plfsr::cpu_features();
  o << "], \"probed\": {\"pclmul\": " << (cf.pclmul ? "true" : "false")
    << ", \"sse41\": " << (cf.sse41 ? "true" : "false")
    << ", \"force_portable\": " << (plfsr::force_portable() ? "true" : "false")
    << "}, \"crc_engines\": {";
  const plfsr::EngineRegistry& reg = plfsr::EngineRegistry::instance();
  const plfsr::CrcSpec specs[] = {plfsr::crcspec::crc32_ethernet(),
                                  plfsr::crcspec::crc32c(),
                                  plfsr::crcspec::crc16_ccitt_false()};
  for (std::size_t i = 0; i < 3; ++i)
    o << (i ? ", " : "") << json_str(specs[i].name) << ": "
      << json_str(reg.best_name_for(specs[i]));
  const plfsr::ExecMode mode = plfsr::PipelinePlan{}.resolve(3);
  o << "}, \"pipe_exec_mode\": "
    << json_str(mode == plfsr::ExecMode::kFused ? "fused" : "threaded")
    << ", \"server_workers\": " << server_workers << ", \"env\": {";
  bool first = true;
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("PLFSR_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    o << (first ? "" : ", ") << json_str(kv.substr(0, eq)) << ": "
      << json_str(eq == std::string::npos ? "" : kv.substr(eq + 1));
    first = false;
  }
  o << "}, \"compiler\": " << json_str(std::string("g++ ") + __VERSION__)
    << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
    << ", \"commit\": " << json_str(commit) << "}";
  return o.str();
}

}  // namespace pb
