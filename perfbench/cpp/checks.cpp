#include "checks.h"

#include <cmath>
#include <cstring>

#include "crypto/digest.h"

namespace perfbench::checks {

namespace {
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}
}  // namespace

const KnownAnswers& fips_sha256() {
  static const KnownAnswers kats = {
      {hpcc::to_bytes("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {hpcc::to_bytes(
           "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {Bytes{},
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {Bytes(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  return kats;
}

std::string sha256_known_answers(const KnownAnswers& kats) {
  for (std::size_t i = 0; i < kats.size(); ++i) {
    const std::string got = hpcc::crypto::Digest::of(kats[i].first).hex();
    if (got != kats[i].second)
      return "SHA-256 known answer " + std::to_string(i) + ": got " + got +
             ", want " + kats[i].second;
  }
  return {};
}

std::string bytes_equal(const Bytes* got, const Bytes& want,
                        const std::string& what) {
  if (got == nullptr) return what + ": missing";
  if (got->size() != want.size())
    return what + ": " + std::to_string(got->size()) + " bytes, want " +
           std::to_string(want.size());
  if (!want.empty() && std::memcmp(got->data(), want.data(), want.size()) != 0)
    return what + ": content differs";
  return {};
}

std::string newest_version(SimTime pull_start, int got,
                           const std::vector<SimTime>& released_at) {
  int want = -1;
  for (std::size_t v = 0; v < released_at.size(); ++v)
    if (released_at[v] <= pull_start) want = static_cast<int>(v);
  if (got == want) return {};
  return "pull at " + std::to_string(pull_start) + " us got version " +
         std::to_string(got) + ", want " + std::to_string(want);
}

std::string wan_covers_blobs(std::uint64_t wan_bytes,
                             std::uint64_t distinct_blob_bytes) {
  if (wan_bytes >= distinct_blob_bytes) return {};
  return "WAN moved " + std::to_string(wan_bytes) +
         " bytes, fewer than the " + std::to_string(distinct_blob_bytes) +
         " distinct blob bytes nodes received";
}

std::string identical_results(const std::vector<SimTime>& first,
                              const std::vector<SimTime>& again) {
  if (first.size() != again.size())
    return "repetition produced " + std::to_string(again.size()) +
           " simulated results, the first one " +
           std::to_string(first.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    if (first[i] != again[i])
      return "simulated result " + std::to_string(i) + " is " +
             std::to_string(again[i]) + ", in the first repetition " +
             std::to_string(first[i]);
  return {};
}

ConversionModel::ConversionModel(const hpcc::engine::EngineBehavior& b) {
  using hpcc::engine::MountStrategy;
  const bool graph_dir = b.mount == MountStrategy::kOverlayKernel ||
                         b.mount == MountStrategy::kOverlayFuse;
  caches_ = b.cache_native_format || graph_dir;
  shares_ = b.share_native_format && !graph_dir;
}

bool ConversionModel::start(const std::string& image,
                            const std::string& user) {
  if (!caches_) return false;
  if (shared_.contains(image) || owned_.contains({image, user})) return true;
  owned_.insert({image, user});
  if (shares_) shared_.insert(image);
  return false;
}

std::string conversion_hit(bool got, bool predicted) {
  if (got == predicted) return {};
  return std::string("conversion_cache_hit ") + (got ? "true" : "false") +
         ", Table 2 behaviour predicts " + (predicted ? "true" : "false");
}

std::string stage_order(SimTime submit, const hpcc::engine::RunOutcome& o) {
  if (submit <= o.pull_done && o.pull_done <= o.convert_done &&
      o.convert_done <= o.create_done)
    return {};
  return "stage times out of order: submit " + std::to_string(submit) +
         ", pull " + std::to_string(o.pull_done) + ", convert " +
         std::to_string(o.convert_done) + ", create " +
         std::to_string(o.create_done);
}

std::string first_pull_bytes(std::uint64_t got, std::uint64_t pushed) {
  if (got == pushed) return {};
  return "first pull moved " + std::to_string(got) + " bytes, " +
         std::to_string(pushed) + " were pushed";
}

double trace_useful_node_usec(const hpcc::orch::WorkloadTrace& trace,
                              std::uint32_t cores_per_node,
                              double job_stretch) {
  double total = 0;
  for (const auto& j : trace.jobs)
    total += static_cast<double>(j.nodes) *
             (static_cast<double>(j.run_time) * job_stretch);
  for (const auto& p : trace.pods)
    total += static_cast<double>(p.spec.cpu_request) /
             static_cast<double>(cores_per_node) *
             static_cast<double>(p.spec.workload.cpu_time);
  return total;
}

std::string scenario_counts(const hpcc::orch::ScenarioMetrics& m,
                            std::uint64_t trace_pods,
                            std::uint64_t trace_jobs) {
  if (m.pods_completed + m.pods_failed != trace_pods)
    return "pods completed " + std::to_string(m.pods_completed) +
           " + failed " + std::to_string(m.pods_failed) + " != trace pods " +
           std::to_string(trace_pods);
  if (m.jobs_completed != trace_jobs)
    return "jobs completed " + std::to_string(m.jobs_completed) +
           " != trace jobs " + std::to_string(trace_jobs);
  return {};
}

std::string start_latencies(const hpcc::orch::ScenarioMetrics& m) {
  if (m.mean_pod_start_latency >= 0 && m.p95_pod_start_latency >= 0) return {};
  return "negative pod start latency: mean " +
         std::to_string(m.mean_pod_start_latency) + " us, p95 " +
         std::to_string(m.p95_pod_start_latency) + " us";
}

std::string utilization(const hpcc::orch::ScenarioMetrics& m,
                        std::uint32_t nodes, double expected_node_usec,
                        double tolerance) {
  const double got = m.utilization * static_cast<double>(nodes) *
                     static_cast<double>(m.makespan);
  if (expected_node_usec > 0 &&
      std::fabs(got / expected_node_usec - 1.0) <= tolerance)
    return {};
  return "utilization " + num(m.utilization) + " gives " + num(got) +
         " node-us of useful work, the trace holds " +
         num(expected_node_usec) + " (tolerance " + num(tolerance) + ")";
}

}  // namespace perfbench::checks
