// Process-wide counters interposed in the benchmark binary.
//
// hooks.cpp replaces the global operator new/delete and defines fsync and
// fdatasync, so every heap allocation and every durability barrier the
// hinet libraries make in this process is counted.  Both counts are exact
// and repeat run to run for a fixed input, which makes them usable as
// deterministic proxies next to the wall-clock timings.
#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations (operator new calls) since process start.
std::uint64_t allocation_count();

/// fsync + fdatasync calls since process start.
std::uint64_t fsync_count();

}  // namespace perfbench
