// perfbench_selftest — shows that each output check of the benchmark
// passes on the program's real output and fails when its oracle is
// violated (a byte flipped in a copy of a pulled layer, a wrong
// known-answer constant, one pod removed from a copy of a scenario's
// result, ...). Then runs every workload at the benchmark's own size,
// twice, and expects no check to fail and both repetitions to simulate
// identically.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <string>

#include "checks.h"
#include "engine/engine.h"
#include "image/build.h"
#include "image/store.h"
#include "orch/scenario.h"
#include "orch/workload.h"
#include "registry/client.h"
#include "registry/registry.h"
#include "sim/cluster.h"
#include "util/log.h"
#include "util/rng.h"
#include "vfs/layer.h"
#include "vfs/memfs.h"
#include "workloads.h"

namespace {

using namespace hpcc;
using namespace perfbench;

int failures = 0;

void expect(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++failures;
}
void holds(const std::string& err, const std::string& what) {
  expect(err.empty(), what + " holds" + (err.empty() ? "" : ": " + err));
}
void violated(const std::string& err, const std::string& what) {
  expect(!err.empty(), what + " is caught");
}

struct Pushed {
  registry::OciRegistry origin{"registry.example"};
  image::ImageReference ref =
      image::ImageReference::parse("registry.example/apps/app:1").value();
  Bytes layer_blob;
  Bytes file;
  std::uint64_t bytes = 0;  ///< config + layer blobs
};

void push_image(Pushed& p) {
  Rng rng(7);
  (void)p.origin.create_project("apps", "builder");
  vfs::MemFs fs;
  (void)fs.mkdir("/srv", {}, true);
  p.file = image::synthetic_file_content(rng, 40 * 1024);
  (void)fs.write_file("/srv/app.bin", p.file);
  p.layer_blob = vfs::Layer::from_fs(fs).serialize();
  image::OciManifest m;
  m.layer_sizes.push_back(p.layer_blob.size());
  m.layer_digests.push_back(
      p.origin.push_blob("builder", "apps", p.layer_blob).value());
  Bytes config = image::ImageConfig{}.serialize();
  p.bytes = p.layer_blob.size() + config.size();
  m.config_digest = p.origin.push_blob("builder", "apps", config).value();
  (void)p.origin.push_manifest("builder", p.ref, m);
}

void fleet_checks() {
  holds(checks::sha256_known_answers(checks::fips_sha256()),
        "SHA-256 known answers");
  auto wrong = checks::fips_sha256();
  wrong[0].second[0] = wrong[0].second[0] == '0' ? '1' : '0';
  violated(checks::sha256_known_answers(wrong), "a wrong KAT constant");

  Pushed p;
  push_image(p);
  sim::Network net(2);
  registry::RegistryClient client(&net, 1);
  image::BlobStore store;
  auto pulled = client.pull(0, p.origin, p.ref, &store);
  expect(pulled.ok(), "a pull from the origin succeeds");
  if (!pulled.ok()) return;
  const auto& digest = pulled.value().manifest.layer_digests[0];
  auto held = store.get(digest);
  holds(checks::bytes_equal(held.ok() ? held.value() : nullptr, p.layer_blob,
                            "pulled layer"),
        "pulled layer equals the pushed blob");
  Bytes flipped = *held.value();
  flipped[flipped.size() / 2] ^= 0x01;
  violated(checks::bytes_equal(&flipped, p.layer_blob, "pulled layer"),
           "one byte flipped in a copy of a pulled layer");
  violated(checks::bytes_equal(nullptr, p.layer_blob, "pulled layer"),
           "a layer missing from the node's store");

  const std::vector<SimTime> released = {0, sec(10), sec(20)};
  holds(checks::newest_version(sec(15), 1, released), "newest version");
  violated(checks::newest_version(sec(15), 0, released),
           "an older version handed out");
  violated(checks::newest_version(sec(15), 2, released),
           "a version handed out before its release");
  holds(checks::wan_covers_blobs(net.wan_bytes(), p.bytes),
        "WAN bytes cover the distinct blobs");
  violated(checks::wan_covers_blobs(p.bytes - 1, p.bytes),
           "fewer WAN bytes than distinct blobs");
  const std::vector<SimTime> times = {pulled.value().done, sec(3)};
  holds(checks::identical_results(times, times), "identical repetitions");
  auto shifted = times;
  shifted[1] += 1;
  violated(checks::identical_results(times, shifted),
           "one completion time shifted by 1 us");
  violated(checks::identical_results(times, {times[0]}),
           "one simulated result missing");
}

void container_checks() {
  Pushed p;
  push_image(p);
  sim::ClusterConfig cc;
  cc.num_nodes = 2;
  sim::Cluster cluster(cc);
  engine::SiteState site;
  engine::EngineContext ctx;
  ctx.cluster = &cluster;
  ctx.registry = &p.origin;
  ctx.site = &site;
  auto eng = engine::make_engine(engine::EngineKind::kSarus, ctx);
  checks::ConversionModel model(eng->behavior());
  const SimTime submit = sec(1);
  auto first = eng->run_image(submit, p.ref);
  expect(first.ok(), "a Sarus start succeeds");
  if (!first.ok()) return;
  const engine::RunOutcome o = first.value();
  holds(checks::conversion_hit(o.conversion_cache_hit,
                               model.start("app", "user")),
        "first start converts");
  auto again = eng->run_image(sec(60), p.ref);
  expect(again.ok(), "a second Sarus start succeeds");
  if (again.ok())
    holds(checks::conversion_hit(again.value().conversion_cache_hit,
                                 model.start("app", "user")),
          "second start hits the conversion cache");
  violated(checks::conversion_hit(!o.conversion_cache_hit,
                                  o.conversion_cache_hit),
           "a conversion-cache result the Table 2 behaviour does not predict");
  checks::ConversionModel shared(eng->behavior());
  (void)shared.start("app", "alice");
  expect(shared.start("app", "bob"),
         "Sarus shares converted images between users");
  checks::ConversionModel per_user(
      engine::make_engine(engine::EngineKind::kShifter, ctx)->behavior());
  (void)per_user.start("app", "alice");
  expect(!per_user.start("app", "bob"),
         "Shifter caches converted images per user");

  holds(checks::stage_order(submit, o), "stage order");
  auto swapped = o;
  std::swap(swapped.pull_done, swapped.create_done);
  violated(checks::stage_order(submit, swapped), "create before pull");
  violated(checks::stage_order(o.pull_done + 1, o), "pull before submit");
  holds(checks::first_pull_bytes(o.bytes_pulled, p.bytes),
        "first pull moves the pushed bytes");
  violated(checks::first_pull_bytes(o.bytes_pulled + 1, p.bytes),
           "a first pull one byte off");
  Bytes read = p.file;
  holds(checks::bytes_equal(&read, p.file, "read"), "read bytes equal source");
  read.back() ^= 0x80;
  violated(checks::bytes_equal(&read, p.file, "read"),
           "one byte flipped in a copy of a mount read");
}

void mixed_checks() {
  orch::TraceConfig tc;
  tc.duration = minutes(60);
  auto trace = orch::generate_trace(3, tc);
  orch::ScenarioConfig sc;
  auto scenario =
      orch::make_scenario(orch::ScenarioKind::kKubeletInAllocation, sc);
  auto r = scenario->run(trace);
  expect(r.ok(), "kubelet-in-allocation runs a small trace");
  if (!r.ok()) return;
  const auto m = r.value();
  const auto pods = trace.pods.size(), jobs = trace.jobs.size();
  holds(checks::scenario_counts(m, pods, jobs), "pod and job counts");
  auto missing = m;
  --missing.pods_completed;
  violated(checks::scenario_counts(missing, pods, jobs),
           "one pod removed from a copy of the result");
  auto lost_job = m;
  --lost_job.jobs_completed;
  violated(checks::scenario_counts(lost_job, pods, jobs), "one job lost");
  holds(checks::start_latencies(m), "start latencies >= 0");
  auto early = m;
  early.mean_pod_start_latency = -1;
  violated(checks::start_latencies(early), "a negative start latency");
  const double useful =
      checks::trace_useful_node_usec(trace, sc.cores_per_node, 1.0);
  holds(checks::utilization(m, sc.num_nodes, useful, 0.03),
        "utilization matches the trace's node-time");
  auto inflated = m;
  inflated.utilization *= 1.1;
  violated(checks::utilization(inflated, sc.num_nodes, useful, 0.03),
           "utilization 10% off");
}

void workloads() {
  struct Case {
    const char* name;
    std::unique_ptr<Workload> w;
  } cases[] = {{"fleet_pull", make_fleet_pull(11)},
               {"container_start", make_container_start(11)},
               {"mixed_cluster", make_mixed_cluster(11)}};
  for (auto& c : cases) {
    std::vector<SimTime> first;
    for (int rep = 0; rep < 2; ++rep) {
      const RepOutcome r = c.w->run(nullptr);
      for (const auto& e : r.errors) std::printf("     %s\n", e.c_str());
      expect(r.errors.empty() && r.attempted > 0,
             std::string(c.name) + " repetition " + std::to_string(rep) +
                 " passes its checks");
      if (rep == 0)
        first = r.sim;
      else
        holds(checks::identical_results(first, r.sim),
              std::string(c.name) + " repeats its simulated results");
    }
  }
}

}  // namespace

int main() {
  LogSink::instance().set_print(false);
  fleet_checks();
  container_checks();
  mixed_checks();
  workloads();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures == 0 ? 0 : 1;
}
