// Output checks made apart from the program. Each returns an empty
// string when its oracle holds and a one-line reason when it does not,
// so the self-test can feed every check a deliberately violated input.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "orch/scenario.h"
#include "orch/workload.h"
#include "util/bytes.h"
#include "util/sim_time.h"

namespace perfbench {
using hpcc::Bytes;
using hpcc::SimTime;
}  // namespace perfbench

namespace perfbench::checks {

// ----- crypto

/// (message, expected SHA-256 hex) pairs.
using KnownAnswers = std::vector<std::pair<Bytes, std::string>>;
/// The FIPS 180-4 SHA-256 examples: "abc", the 448-bit two-block
/// message, the empty string and one million 'a'.
const KnownAnswers& fips_sha256();
std::string sha256_known_answers(const KnownAnswers& kats);

// ----- fleet_pull

std::string bytes_equal(const Bytes* got, const Bytes& want,
                        const std::string& what);
/// `released_at[v]` is when version v became pullable (v0: before the
/// run). A pull that began at `pull_start` must get the newest version
/// released at or before it; `got` is the version whose content the
/// program returned (-1: content matched no version).
std::string newest_version(SimTime pull_start, int got,
                           const std::vector<SimTime>& released_at);
/// Proxies start empty, so every distinct blob that reached a node
/// crossed the WAN at least once.
std::string wan_covers_blobs(std::uint64_t wan_bytes,
                             std::uint64_t distinct_blob_bytes);

// ----- all workloads

/// Every repetition replays the same simulation, so its simulated
/// results (completion times, byte counts, scenario figures) must equal
/// the first repetition's exactly.
std::string identical_results(const std::vector<SimTime>& first,
                              const std::vector<SimTime>& again);

// ----- container_start

/// Table 2 behaviour of an engine's conversion cache, tracked apart
/// from the engine: converted artifacts are cached when the engine
/// caches its native format or keeps OCI layers in a graph dir, and a
/// cached artifact serves another user only when the engine shares its
/// native format.
class ConversionModel {
 public:
  explicit ConversionModel(const hpcc::engine::EngineBehavior& b);
  /// Predicted conversion_cache_hit of a start of `image` by `user`;
  /// records the conversion a miss performs.
  bool start(const std::string& image, const std::string& user);

 private:
  bool caches_ = false;
  bool shares_ = false;
  std::set<std::pair<std::string, std::string>> owned_;  // (image, user)
  std::set<std::string> shared_;
};

std::string conversion_hit(bool got, bool predicted);
std::string stage_order(SimTime submit, const hpcc::engine::RunOutcome& o);
std::string first_pull_bytes(std::uint64_t got, std::uint64_t pushed);

// ----- mixed_cluster

/// Useful node-time (node-µs) the trace asks for: jobs hold whole nodes
/// for run_time (stretched by `job_stretch`, the §6.2 overhead for the
/// containerized WLM), pods hold cpu_request/cores_per_node of a node
/// for their compute time.
double trace_useful_node_usec(const hpcc::orch::WorkloadTrace& trace,
                              std::uint32_t cores_per_node,
                              double job_stretch);
std::string scenario_counts(const hpcc::orch::ScenarioMetrics& m,
                            std::uint64_t trace_pods,
                            std::uint64_t trace_jobs);
std::string start_latencies(const hpcc::orch::ScenarioMetrics& m);
/// |utilization × nodes × makespan / expected − 1| <= tolerance.
std::string utilization(const hpcc::orch::ScenarioMetrics& m,
                        std::uint32_t nodes, double expected_node_usec,
                        double tolerance);

}  // namespace perfbench::checks
