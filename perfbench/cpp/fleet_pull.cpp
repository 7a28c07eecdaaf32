// fleet_pull: about a thousand nodes pull images through four site
// pull-through proxies from a rate-limited origin under the chaos plan
// of bench_chaos_fleet (WAN brownout, proxy flap, WAN partition), while
// a release train pushes new versions that share base layers. Each node
// keeps what it pulls in its own BlobStore and pulls twice: once on
// arrival and once, 30 s later, to pick up the newest release.
//
// The train also moves each app's reused `:latest` tag to every version
// it releases. A probe client pulls `:latest` of every app through every
// proxy once before the first release and once after the last one, when
// no fault window is open, so the second round shows whether a proxy
// hands out a tag's old manifest.
//
// This is the registry / crypto / proxy / fault path at fleet scale;
// nothing in k8s or wlm runs.
#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <tuple>

#include "checks.h"
#include "fault/fault.h"
#include "fault/resilience.h"
#include "fault/retry.h"
#include "image/build.h"
#include "image/manifest.h"
#include "image/reference.h"
#include "image/store.h"
#include "registry/client.h"
#include "registry/proxy.h"
#include "registry/registry.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "vfs/layer.h"
#include "vfs/memfs.h"
#include "vfs/path.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace hpcc;

constexpr std::uint32_t kNodes = 1024;
constexpr SimTime kArrivalWindow = sec(60);
/// The probe rounds: before the first release and after every release,
/// pull re-attempt and fault window.
constexpr SimTime kProbeTimes[] = {0, sec(300)};
constexpr SimDuration kUpgradeAfter = sec(30);
constexpr SimDuration kReattemptAfter = sec(5);
constexpr int kPullAttempts = 4;
constexpr std::uint32_t kPrefetchBlobs = 256;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::uint32_t kProxies = 4;
constexpr std::uint32_t kApps = 4;
/// Versions per app: v0 is in the origin before the run, the rest are
/// pushed by the release train while nodes pull.
constexpr std::uint32_t kVersions = 6;
/// Pool workers shared by every client (caller + workers <= nproc). With
/// one worker a pull waits on two threads, so a thread the shared host
/// deschedules stalls fewer pulls.
constexpr unsigned kPoolWorkers = 1;
constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

struct Blob {
  Bytes bytes;
  crypto::Digest digest;
};

/// One image version as the release train builds it.
struct Version {
  image::ImageReference ref;
  image::ImageReference latest;   ///< the app's reused tag
  image::ImageConfig config;
  std::vector<vfs::Layer> layers;
  std::vector<Blob> layer_blobs;  ///< serialized layers, manifest order
  Blob config_blob;
  SimTime release = 0;            ///< when the train pushes it (v >= 1)
};

vfs::Layer make_layer(Rng& rng, const std::string& path, std::uint64_t size) {
  vfs::MemFs fs;
  (void)fs.mkdir(vfs::parent(path), {}, true);
  (void)fs.write_file(path, image::synthetic_file_content(rng, size));
  return vfs::Layer::from_fs(fs);
}

Blob blob_of(Bytes bytes) {
  Blob b;
  b.digest = crypto::Digest::of(bytes);
  b.bytes = std::move(bytes);
  return b;
}

struct PullRecord {
  SimTime requested = -1;  ///< first attempt of this pull
  SimTime began = -1;      ///< the attempt that succeeded
  SimTime done = -1;
  std::uint32_t app = 0;
  image::OciManifest manifest;
  std::uint64_t layers_skipped = 0;
  std::uint64_t bytes = 0;
};

/// Event kinds, in the order they run at equal sim times.
enum Kind : int { kRelease, kRetag, kPull, kProbe };

class FleetPull final : public Workload {
 public:
  explicit FleetPull(std::uint64_t seed) : pool_(kPoolWorkers) {
    Rng rng(seed);
    // One base layer every app shares, one runtime layer per app, and a
    // version layer per release.
    const vfs::Layer base = make_layer(rng, "/usr/lib/base.so", 24 * 1024);
    versions_.resize(kApps);
    for (std::uint32_t a = 0; a < kApps; ++a) {
      const std::string app = "app" + std::to_string(a);
      const vfs::Layer runtime =
          make_layer(rng, "/srv/" + app + "/runtime.so", 12 * 1024);
      for (std::uint32_t v = 0; v < kVersions; ++v) {
        Version ver;
        ver.ref = image::ImageReference::parse("registry.example/apps/" + app +
                                               ":v" + std::to_string(v))
                      .value();
        ver.latest = image::ImageReference::parse("registry.example/apps/" +
                                                  app + ":latest")
                         .value();
        ver.config.env["APP"] = app;
        ver.config.env["VERSION"] = std::to_string(v);
        ver.layers = {base, runtime,
                      make_layer(rng, "/srv/" + app + "/bin/" + app,
                                 8 * 1024 + rng.next_below(8 * 1024))};
        for (const auto& l : ver.layers)
          ver.layer_blobs.push_back(blob_of(l.serialize()));
        ver.config_blob = blob_of(ver.config.serialize());
        // Releases every 15 s per app, staggered between apps, so some
        // land inside the brownout and the partition.
        ver.release = v == 0 ? 0
                             : static_cast<SimTime>(v) * sec(15) +
                                   static_cast<SimTime>(a) * msec(3700);
        versions_[a].push_back(std::move(ver));
      }
    }

    // The origin before the run: v0 of every app plus the cold blobs the
    // completed nodes prefetch (the traffic admission control sheds).
    registry::RegistryLimits limits;
    limits.pull_limit = 32;
    limits.pull_window = sec(1);
    origin_ = std::make_unique<registry::OciRegistry>("registry.example",
                                                      limits);
    (void)origin_->create_project("apps", "builder");
    for (auto& app : versions_) {
      const Version& v0 = app[0];
      image::OciManifest m;
      for (const auto& b : v0.layer_blobs) {
        m.layer_digests.push_back(
            origin_->push_blob("builder", "apps", b.bytes).value());
        m.layer_sizes.push_back(b.bytes.size());
      }
      m.config_digest =
          origin_->push_blob("builder", "apps", v0.config_blob.bytes).value();
      (void)origin_->push_manifest("builder", v0.ref, m);
      (void)origin_->push_manifest("builder", v0.latest, m);
    }
    for (std::uint32_t i = 0; i < kPrefetchBlobs; ++i)
      prefetch_.push_back(
          origin_
              ->push_blob("builder", "apps",
                          image::synthetic_file_content(rng, 16 * 1024))
              .value());

    // Arrivals are stratified: node n arrives at a seeded point of its
    // own slot of the window, and slots and apps are dealt to nodes in a
    // seeded order. Every seed thus sends the same number of nodes per
    // app into each incident window, and seeds differ in detail only.
    std::vector<std::uint32_t> slot(kNodes);
    for (std::uint32_t n = 0; n < kNodes; ++n) slot[n] = n;
    for (std::size_t i = slot.size(); i > 1; --i)
      std::swap(slot[i - 1], slot[rng.next_below(i)]);
    const SimDuration width = kArrivalWindow / kNodes;
    arrival_.resize(kNodes);
    app_of_.resize(kNodes);
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      arrival_[n] = static_cast<SimTime>(slot[n]) * width +
                    static_cast<SimTime>(rng.next_below(width));
      app_of_[n] = slot[n] % kApps;
    }
    fault_seed_ = rng.next_u64();
  }

  RepOutcome run(Spans* spans) override;

 private:
  util::ThreadPool pool_;
  std::vector<std::vector<Version>> versions_;
  std::unique_ptr<registry::OciRegistry> origin_;
  std::vector<crypto::Digest> prefetch_;
  std::vector<SimTime> arrival_;
  std::vector<std::uint32_t> app_of_;
  std::uint64_t fault_seed_ = 0;
};

RepOutcome FleetPull::run(Spans* spans) {
  RepOutcome out;
  // ----- fresh program state from the generated inputs (untimed)
  registry::OciRegistry origin = *origin_;
  fault::FaultPlan plan;
  plan.seed = fault_seed_;
  plan.brownout(fault::Domain::kWan, 0.25, sec(10), sec(40));
  plan.partition(fault::Domain::kWan, sec(45), sec(55));
  fault::FaultSpec flap;
  flap.domain = fault::Domain::kFabric;
  flap.kind = fault::FaultKind::kError;
  flap.probability = 0.2;
  flap.window_from = sec(20);
  flap.window_until = sec(35);
  plan.add(flap);
  fault::FaultInjector injector(plan);

  const sim::NodeId builder = kNodes, prober = kNodes + 1;
  sim::Network net(kNodes + 2);
  net.set_fault_injector(&injector);

  std::vector<std::unique_ptr<registry::PullThroughProxy>> proxies;
  for (std::uint32_t i = 0; i < kProxies; ++i) {
    auto proxy = std::make_unique<registry::PullThroughProxy>(
        "proxy" + std::to_string(i) + ".site", &origin);
    proxy->set_fault_injector(&injector);
    proxy->set_retry_policy(fault::RetryPolicy::standard(3));
    proxy->set_origin_breaker(fault::BreakerConfig::standard());
    proxy->set_admission(fault::AdmissionConfig::standard(5.0));
    proxies.push_back(std::move(proxy));
  }
  std::vector<registry::RegistryClient> clients;
  clients.reserve(kNodes);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    clients.emplace_back(&net, n, &pool_);
    auto rp = fault::RetryPolicy::standard(4);
    rp.total_budget = sec(8);
    clients.back().set_retry_policy(rp);
    clients.back().set_breaker_config(fault::BreakerConfig::standard());
    clients.back().set_hedge_policy(
        fault::HedgePolicy::at_percentile(0.95, 1.5));
  }
  registry::RegistryClient release_train(&net, builder, &pool_);
  registry::RegistryClient probe(&net, prober, &pool_);
  std::vector<image::BlobStore> stores(kNodes);
  image::BlobStore probe_store;
  pool_.reset_steal_stats();

  // Event order: (time, kind, index, attempt, requested). The index of
  // a release or retag is app*versions+v, of a pull node*2+which, of a
  // probe (round*proxies+proxy)*apps+app.
  using Job = std::tuple<SimTime, int, std::uint32_t, int, SimTime>;
  std::priority_queue<Job, std::vector<Job>, std::greater<Job>> jobs;
  for (std::uint32_t a = 0; a < kApps; ++a)
    for (std::uint32_t v = 1; v < kVersions; ++v)
      jobs.emplace(versions_[a][v].release, kRelease, a * kVersions + v, 0,
                   0);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    jobs.emplace(arrival_[n], kPull, n * 2, 0, arrival_[n]);
    jobs.emplace(arrival_[n] + kUpgradeAfter, kPull, n * 2 + 1, 0,
                 arrival_[n] + kUpgradeAfter);
  }
  std::uint32_t probe_idx = 0;
  for (const SimTime t : kProbeTimes)
    for (std::uint32_t i = 0; i < kProxies * kApps; ++i)
      jobs.emplace(t, kProbe, probe_idx++, 0, t);

  std::vector<std::vector<SimTime>> released(
      kApps, std::vector<SimTime>(kVersions, kNever));
  for (auto& r : released) r[0] = 0;
  std::vector<PullRecord> pulls(kNodes * 2), probes(probe_idx);
  std::uint64_t pushes = 0, pushes_failed = 0, pulls_failed = 0;

  // ----- the timed phase: one operation per release, retag, pull
  // attempt or probe
  while (!jobs.empty()) {
    OpTimer op(out.op_s);
    const auto [t, kind, idx, attempt, requested] = jobs.top();
    jobs.pop();
    if (kind == kRelease) {
      const std::uint32_t a = idx / kVersions, v = idx % kVersions;
      const Version& ver = versions_[a][v];
      ++pushes;
      Spans::Scope span(spans, "registry.push", ver.ref.to_string());
      auto pushed = release_train.push(t, origin, "builder", ver.ref,
                                       ver.config, ver.layers);
      if (pushed.ok()) {
        released[a][v] = pushed.value().done;
        jobs.emplace(released[a][v], kRetag, idx, 0, 0);
      } else {
        ++pushes_failed;
      }
      continue;
    }
    if (kind == kRetag) {
      // `:latest` moves when the version's push completes, the moment the
      // version counts as released.
      const Version& ver = versions_[idx / kVersions][idx % kVersions];
      (void)origin.push_manifest("builder", ver.latest,
                                 origin.get_manifest(ver.ref).value());
      continue;
    }
    if (kind == kProbe) {
      const std::uint32_t a = idx % kApps, p = idx / kApps % kProxies;
      Result<registry::PullResult> pulled = err_internal("not pulled");
      {
        Spans::Scope span(spans, "registry.pull",
                          "probe" + std::to_string(idx));
        pulled = probe.pull_with_fallback(t, *proxies[p], origin,
                                          versions_[a][0].latest,
                                          &probe_store,
                                          proxies[(p + 1) % kProxies].get());
      }
      PullRecord& rec = probes[idx];
      rec.requested = rec.began = t;
      rec.app = a;
      if (pulled.ok()) {
        rec.done = pulled.value().done;
        rec.manifest = std::move(pulled.value().manifest);
      }
      continue;
    }
    // A node pulls the pinned tag of the newest version released when
    // the attempt begins. Pulled through `:latest`, most upgrade pulls
    // would get the proxy's stale manifest, and how many would depend on
    // which attempts the faults send on to the origin, i.e. on the seed.
    const std::uint32_t n = idx / 2;
    const std::uint32_t a = app_of_[n];
    int want = 0;
    for (std::uint32_t v = 0; v < kVersions; ++v)
      if (released[a][v] <= t) want = static_cast<int>(v);
    auto& client = clients[n];
    Result<registry::PullResult> pulled = err_internal("not pulled");
    {
      Spans::Scope span(spans, "registry.pull", "node" + std::to_string(n));
      pulled = client.pull_with_fallback(
          t, *proxies[n % kProxies], origin,
          versions_[a][static_cast<std::size_t>(want)].ref, &stores[n],
          proxies[(n + 1) % kProxies].get());
    }
    if (pulled.ok()) {
      PullRecord& rec = pulls[idx];
      rec.requested = requested;
      rec.began = t;
      rec.done = pulled.value().done;
      rec.app = a;
      rec.manifest = std::move(pulled.value().manifest);
      rec.layers_skipped = pulled.value().layers_skipped;
      rec.bytes = pulled.value().bytes_transferred;
      (void)proxies[n % kProxies]->fetch_blob(
          rec.done, prefetch_[n % kPrefetchBlobs],
          fault::RequestClass::kPrefetch);
    } else if (attempt + 1 < kPullAttempts) {
      const SimTime failed = std::max(t, client.last_failed_at());
      jobs.emplace(failed + kReattemptAfter, kPull, idx, attempt + 1,
                   requested);
    } else {
      ++pulls_failed;
    }
  }

  // ----- results and checks (untimed)
  out.attempted = pushes + pulls.size() + probes.size();
  out.failed = pushes_failed + pulls_failed;

  std::map<std::string, std::uint64_t> distinct;  // digest -> size
  // Checks what one pull handed out: the content must be one version's,
  // byte for byte, and that version must be the newest released when the
  // pull began (the second check's result is returned).
  auto check_pull = [&](const PullRecord& rec, const image::BlobStore& store,
                        const std::string& who) -> std::string {
    int got = -1;
    for (std::size_t v = 0; v < versions_[rec.app].size(); ++v) {
      const Version& ver = versions_[rec.app][v];
      bool same = rec.manifest.config_digest == ver.config_blob.digest &&
                  rec.manifest.layer_digests.size() == ver.layer_blobs.size();
      for (std::size_t l = 0; same && l < ver.layer_blobs.size(); ++l)
        same = rec.manifest.layer_digests[l] == ver.layer_blobs[l].digest;
      if (same) got = static_cast<int>(v);
    }
    if (got < 0) {
      out.errors.push_back(who + ": content matches no released version");
      return {};
    }
    const Version& ver = versions_[rec.app][static_cast<std::size_t>(got)];
    for (std::size_t l = 0; l < ver.layer_blobs.size(); ++l) {
      const Blob& want = ver.layer_blobs[l];
      auto held = store.get(want.digest);
      if (auto e = checks::bytes_equal(held.ok() ? held.value() : nullptr,
                                       want.bytes,
                                       who + " layer " + std::to_string(l));
          !e.empty())
        out.errors.push_back(e);
      distinct[want.digest.hex()] = want.bytes.size();
    }
    distinct[ver.config_blob.digest.hex()] = ver.config_blob.bytes.size();
    return checks::newest_version(rec.began, got, released[rec.app]);
  };

  std::vector<double> latency_ms;
  std::uint64_t skipped = 0, pulled_bytes = 0;
  for (std::size_t i = 0; i < pulls.size(); ++i) {
    const PullRecord& rec = pulls[i];
    out.sim.push_back(rec.done);
    if (rec.done < 0) continue;
    latency_ms.push_back(static_cast<double>(rec.done - rec.requested) / 1e3);
    skipped += rec.layers_skipped;
    pulled_bytes += rec.bytes;
    const std::string who = "node" + std::to_string(i / 2);
    if (auto e = check_pull(rec, stores[i / 2], who); !e.empty())
      out.errors.push_back(who + ": " + e);
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const PullRecord& rec = probes[i];
    out.sim.push_back(rec.done);
    const std::string who = "probe " + std::to_string(i) + " (" +
                            versions_[rec.app][0].latest.to_string() +
                            " via proxy" +
                            std::to_string(i / kApps % kProxies) + ")";
    if (rec.done < 0) {
      out.errors.push_back(who + ": pull failed");
    } else if (auto e = check_pull(rec, probe_store, who); !e.empty()) {
      // Known fault: a proxy keeps a tag's first manifest for good, so a
      // probe after a release gets an old version. Counted as failed.
      ++out.failed;
    }
  }
  std::uint64_t distinct_bytes = 0;
  for (const auto& [d, size] : distinct) distinct_bytes += size;
  std::uint64_t wan = net.wan_bytes();
  for (const auto& p : proxies) wan += p->upstream_bytes();
  if (auto e = checks::wan_covers_blobs(wan, distinct_bytes); !e.empty())
    out.errors.push_back(e);
  out.sim.push_back(static_cast<SimTime>(wan));

  out.layer["registry.pull_p50_ms"] = percentile(latency_ms, 0.50);
  out.layer["registry.pull_p99_ms"] = percentile(latency_ms, 0.99);
  out.layer["registry.wan_mb"] = static_cast<double>(wan) / kMiB;

  // ----- per-layer counts
  fault::RetryStats retry;
  std::uint64_t trips = 0, hedges = 0, hedges_won = 0, fallbacks = 0;
  std::uint64_t hits = 0, upstream = 0, sheds = 0;
  auto add = [&retry](const fault::RetryStats& s) {
    retry.operations += s.operations;
    retry.attempts += s.attempts;
    retry.backoff_total += s.backoff_total;
  };
  for (const auto& c : clients) {
    add(c.retry_stats());
    trips += c.primary_breaker().trips() + c.secondary_breaker().trips() +
             c.origin_breaker().trips();
    hedges += c.hedges_launched();
    hedges_won += c.hedges_won();
    fallbacks += c.proxy_fallbacks();
  }
  for (const auto& p : proxies) {
    add(p->retry_stats());
    trips += p->origin_breaker().trips();
    hits += p->cache_hits();
    upstream += p->upstream_fetches();
    sheds += p->shed_upstream();
  }
  std::uint64_t stored = 0;
  for (const auto& s : stores) stored += s.stored_bytes();
  out.layer["registry.proxy_hit_ratio"] =
      hits + upstream == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + upstream);
  out.layer["registry.layers_skipped"] = static_cast<double>(skipped);
  out.layer["registry.pull_mb"] = static_cast<double>(pulled_bytes) / kMiB;
  out.layer["registry.proxy_fallbacks"] = static_cast<double>(fallbacks);
  out.layer["fault.retry_amplification"] = retry.amplification();
  out.layer["fault.backoff_ms"] =
      static_cast<double>(retry.backoff_total) / 1e3;
  out.layer["fault.breaker_trips"] = static_cast<double>(trips);
  out.layer["fault.hedge_win_ratio"] =
      hedges == 0 ? 0.0
                  : static_cast<double>(hedges_won) /
                        static_cast<double>(hedges);
  out.layer["fault.sheds"] = static_cast<double>(sheds);
  out.layer["image.blobstore_mb"] = static_cast<double>(stored) / kMiB;
  out.layer["pool.steals"] =
      static_cast<double>(pool_.steal_stats().steals);

  return out;
}

}  // namespace

std::unique_ptr<Workload> make_fleet_pull(std::uint64_t seed) {
  return std::make_unique<FleetPull>(seed);
}

}  // namespace perfbench
