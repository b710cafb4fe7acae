// Host and configuration stamp printed with every result: core counts,
// quota and the CPUs the run may use, the CPU flags next to what the
// library probes, the engines and executor mode the library resolves,
// PLFSR_* overrides, compiler, build type and commit.
#pragma once

#include <cstddef>
#include <string>

namespace pb {

/// One JSON object. `server_workers` is what the server process reported
/// (0 when the workload starts no server).
std::string host_stamp(const std::string& workload, const std::string& commit,
                       std::size_t server_workers);

}  // namespace pb
