// mixed_cluster: all seven §6 Kubernetes/WLM integration scenarios run
// the same generated HPC + Kubernetes trace on 64 nodes. This is the k8s
// control plane, the Slurm WLM and the sim::EventQueue kernel with no
// bytes moved; crypto and vfs stay idle.
//
// k8s-in-wlm stays in the workload although it fails its checks today
// (its sessions start pods before they arrive): its pods and jobs are
// counted as failed operations, so a fix shows as failed dropping to 0.
#include <algorithm>
#include <bit>

#include "checks.h"
#include "orch/scenario.h"
#include "orch/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace hpcc;

/// |measured / trace − 1| allowed for the utilization identity. Pods in
/// every scenario also hold their node share for the 2 s container cold
/// start, which the trace's compute times do not include (~1% of the
/// useful node-time at these sizes).
constexpr double kUtilizationTolerance = 0.03;
constexpr std::uint32_t kNodes = 64;
constexpr SimDuration kTraceLength = minutes(240);
constexpr double kJobsPerHour = 10.0;
constexpr double kPodsPerHour = 150.0;

class MixedCluster final : public Workload {
 public:
  explicit MixedCluster(std::uint64_t seed) {
    orch::TraceConfig tc;
    tc.duration = kTraceLength;
    tc.job_rate_per_hour = kJobsPerHour;
    tc.pod_rate_per_hour = kPodsPerHour;
    trace_ = orch::generate_trace(seed, tc);
  }

  RepOutcome run(Spans* spans) override;

 private:
  orch::WorkloadTrace trace_;
};

/// The simulated figures of one scenario run; ratios by their bits.
void append_results(const orch::ScenarioMetrics& m,
                    std::vector<SimTime>& out) {
  out.insert(out.end(),
             {static_cast<SimTime>(m.pods_completed),
              static_cast<SimTime>(m.pods_failed),
              static_cast<SimTime>(m.jobs_completed),
              static_cast<SimTime>(m.reconfigurations), m.makespan,
              m.mean_pod_start_latency, m.p95_pod_start_latency,
              m.mean_job_wait, std::bit_cast<SimTime>(m.utilization),
              std::bit_cast<SimTime>(m.efficiency),
              std::bit_cast<SimTime>(m.wlm_accounting_coverage)});
}

RepOutcome MixedCluster::run(Spans* spans) {
  RepOutcome out;
  const auto pods = static_cast<std::uint64_t>(trace_.pods.size());
  const auto jobs = static_cast<std::uint64_t>(trace_.jobs.size());
  orch::ScenarioConfig sc;
  sc.num_nodes = kNodes;

  std::vector<orch::ScenarioMetrics> results;
  for (const auto kind : orch::all_scenario_kinds()) {
    auto scenario = orch::make_scenario(kind, sc);
    Result<orch::ScenarioMetrics> r = err_internal("not run");
    {
      OpTimer op(out.op_s);
      Spans::Scope span(spans, "orch.run", scenario->name());
      r = scenario->run(trace_);
    }
    if (!r.ok()) {
      out.errors.push_back(scenario->name() + ": " + r.error().to_string());
      results.emplace_back();
      continue;
    }
    results.push_back(std::move(r).value());
  }

  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto kind = orch::all_scenario_kinds()[i];
    const auto& m = results[i];
    const std::string name(orch::to_string(kind));
    out.attempted += pods + jobs;
    const double stretch = kind == orch::ScenarioKind::kWlmInK8s
                               ? 1.0 + sc.wlm_in_k8s_overhead
                               : 1.0;
    std::vector<std::string> errs;
    for (auto e : {checks::scenario_counts(m, pods, jobs),
                   checks::start_latencies(m),
                   checks::utilization(
                       m, sc.num_nodes,
                       checks::trace_useful_node_usec(
                           trace_, sc.cores_per_node, stretch),
                       kUtilizationTolerance)})
      if (!e.empty()) errs.push_back(name + ": " + e);
    if (kind == orch::ScenarioKind::kK8sInWlm) {
      // Known fault: every operation of this scenario counts as failed
      // while any of its checks fails.
      if (!errs.empty()) out.failed += pods + jobs;
    } else {
      out.errors.insert(out.errors.end(), errs.begin(), errs.end());
    }
    append_results(m, out.sim);
    out.layer["orch." + name + ".host_ms"] = out.op_s[i] * 1e3;
    out.layer["orch." + name + ".utilization"] = m.utilization;
    out.layer["orch." + name + ".pod_start_mean_ms"] =
        static_cast<double>(m.mean_pod_start_latency) / 1e3;
    out.layer["orch." + name + ".pod_start_p95_ms"] =
        static_cast<double>(m.p95_pod_start_latency) / 1e3;
    out.layer["orch." + name + ".job_wait_mean_ms"] =
        static_cast<double>(m.mean_job_wait) / 1e3;
    out.layer["orch." + name + ".makespan_s"] =
        static_cast<double>(m.makespan) / 1e6;
  }
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_mixed_cluster(std::uint64_t seed) {
  return std::make_unique<MixedCluster>(seed);
}

}  // namespace perfbench
