// The benchmark's three workloads. Each factory generates its inputs
// from the seed (that is the set-up the benchmark times) and returns a
// Workload whose run() replays the timed phase from fresh program state.
#pragma once

#include <cstdint>
#include <memory>

#include "common.h"

namespace perfbench {

std::unique_ptr<Workload> make_fleet_pull(std::uint64_t seed);
std::unique_ptr<Workload> make_container_start(std::uint64_t seed);
std::unique_ptr<Workload> make_mixed_cluster(std::uint64_t seed);

}  // namespace perfbench
