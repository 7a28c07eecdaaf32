// container_start: each of the nine engines gets a fresh SiteState and
// starts seeded images of three shapes (many small files, a few large
// ones, something between) on several nodes through
// ContainerEngine::run_image, as two users. After each start the
// container reads a seeded set of files through a lazy mount of the
// converted squash image (or, for engines that convert to no squash
// image, of the image published as a lazy squash); the reads walk
// storage::CacheHierarchy and decompress real blocks.
//
// The first start of an image on a site converts it (for squash engines
// that is LZSS compression, the codec write path); later starts hit the
// conversion cache. k8s, wlm and the proxies stay idle.
#include <algorithm>
#include <map>

#include "checks.h"
#include "engine/engine.h"
#include "image/build.h"
#include "image/manifest.h"
#include "image/reference.h"
#include "registry/lazy.h"
#include "registry/registry.h"
#include "sim/cluster.h"
#include "storage/tiers.h"
#include "util/rng.h"
#include "vfs/layer.h"
#include "vfs/memfs.h"
#include "vfs/path.h"
#include "vfs/squash_image.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace hpcc;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::uint32_t kNodes = 8;
constexpr SimDuration kStartGap = sec(30);
/// Files read through the lazy mount after each start.
constexpr std::uint32_t kReadsPerStart = 6;

struct Shape {
  const char* name;
  int layers;
  int files_per_layer;
  std::uint64_t min_file;
  std::uint64_t max_file;
};

// python-like (many small files), an MPI application (few large files)
// and a tools image in between.
constexpr Shape kShapes[] = {
    {"pyenv", 3, 70, 512, 2560},
    {"mpiapp", 2, 1, 256 * 1024, 256 * 1024},
    {"tools", 2, 12, 8 * 1024, 16 * 1024},
};

struct Image {
  image::ImageReference ref;
  std::map<std::string, Bytes> files;  ///< path -> content (source of truth)
  std::vector<std::string> paths;
  std::uint64_t pushed_bytes = 0;      ///< config + layer blobs
  vfs::SquashImage published;          ///< lazy squash for non-squash engines
};

/// Two users share every site, so per-user and shared conversion caches
/// behave differently.
std::string user_of(std::uint32_t node) {
  return node % 2 == 0 ? "alice" : "bob";
}

struct Start {
  SimTime submit = 0;
  std::uint32_t node = 0;
  std::uint32_t image = 0;
  std::vector<std::string> reads;
};

class ContainerStart final : public Workload {
 public:
  explicit ContainerStart(std::uint64_t seed) {
    Rng rng(seed);
    origin_ = std::make_unique<registry::OciRegistry>("registry.example");
    (void)origin_->create_project("apps", "builder");
    for (const Shape& shape : kShapes) {
      Image img;
      img.ref = image::ImageReference::parse(
                    std::string("registry.example/apps/") + shape.name + ":1")
                    .value();
      image::OciManifest m;
      vfs::MemFs whole;
      for (int l = 0; l < shape.layers; ++l) {
        vfs::MemFs fs;
        for (int f = 0; f < shape.files_per_layer; ++f) {
          const std::string path = std::string("/app/") + shape.name + "/l" +
                                   std::to_string(l) + "/f" +
                                   std::to_string(f) + ".dat";
          const std::uint64_t size =
              rng.next_range(shape.min_file, shape.max_file + 1);
          Bytes content = image::synthetic_file_content(rng, size);
          for (vfs::MemFs* target : {&fs, &whole}) {
            (void)target->mkdir(vfs::parent(path), {}, true);
            (void)target->write_file(path, content);
          }
          img.files[path] = std::move(content);
          img.paths.push_back(path);
        }
        Bytes blob = vfs::Layer::from_fs(fs).serialize();
        img.pushed_bytes += blob.size();
        m.layer_sizes.push_back(blob.size());
        m.layer_digests.push_back(
            origin_->push_blob("builder", "apps", std::move(blob)).value());
      }
      image::ImageConfig config;
      config.env["IMAGE"] = shape.name;
      Bytes config_blob = config.serialize();
      img.pushed_bytes += config_blob.size();
      m.config_digest =
          origin_->push_blob("builder", "apps", std::move(config_blob))
              .value();
      (void)origin_->push_manifest("builder", img.ref, m);
      img.published = vfs::SquashImage::build(whole);
      (void)registry::publish_lazy(*origin_, "builder", "apps", img.published);
      images_.push_back(std::move(img));
    }

    // Start schedule: node n's k-th start is submitted at k * 30 s plus a
    // per-node offset; the image order on each node is seeded.
    const auto n_images = static_cast<std::uint32_t>(images_.size());
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      std::vector<std::uint32_t> order;
      for (std::uint32_t i = 0; i < n_images; ++i) order.push_back(i);
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.next_below(i)]);
      for (std::size_t k = 0; k < order.size(); ++k) {
        Start st;
        st.submit = static_cast<SimTime>(k) * kStartGap +
                    static_cast<SimTime>(n) * msec(1500);
        st.node = n;
        st.image = order[k];
        const Image& img = images_[st.image];
        for (std::uint32_t r = 0; r < kReadsPerStart; ++r)
          st.reads.push_back(img.paths[rng.next_below(img.paths.size())]);
        starts_.push_back(std::move(st));
      }
    }
    std::stable_sort(starts_.begin(), starts_.end(),
                     [](const Start& a, const Start& b) {
                       return a.submit < b.submit;
                     });
  }

  RepOutcome run(Spans* spans) override;

 private:
  std::unique_ptr<registry::OciRegistry> origin_;
  std::vector<Image> images_;
  std::vector<Start> starts_;
};

RepOutcome ContainerStart::run(Spans* spans) {
  RepOutcome out;
  std::vector<double> latency_ms;
  std::uint64_t wan = 0, pulled = 0, conversions = 0;

  for (const auto kind : engine::all_engine_kinds()) {
    // ----- fresh site state (untimed)
    registry::OciRegistry origin = *origin_;
    sim::ClusterConfig cc;
    cc.num_nodes = kNodes;
    sim::Cluster cluster(cc);
    engine::SiteState site;
    std::vector<std::unique_ptr<engine::ContainerEngine>> engines;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      engine::EngineContext ctx;
      ctx.cluster = &cluster;
      ctx.node = n;
      ctx.registry = &origin;
      ctx.site = &site;
      ctx.user = user_of(n);
      engines.push_back(engine::make_engine(kind, ctx));
    }
    const std::string ename(engine::to_string(kind));
    checks::ConversionModel model(engines[0]->behavior());
    std::vector<bool> seen(images_.size(), false);
    std::vector<const vfs::SquashImage*> squash(images_.size(), nullptr);

    // ----- timed: one operation per start with its reads and checks
    for (const Start& st : starts_) {
      OpTimer op(out.op_s);
      engine::ContainerEngine& eng = *engines[st.node];
      const Image& img = images_[st.image];
      const bool first = !seen[st.image];
      seen[st.image] = true;
      ++out.attempted;
      const std::size_t known = site.squash_artifacts.size();
      Result<engine::RunOutcome> r = err_internal("not run");
      {
        Spans::Scope span(spans,
                          first ? "engine.cold_start" : "engine.warm_start",
                          ename + "/node" + std::to_string(st.node) + "/" +
                              img.ref.repository);
        r = eng.run_image(st.submit, img.ref);
      }
      if (!r.ok()) {
        ++out.failed;
        out.errors.push_back(ename + ": " + r.error().to_string());
        continue;
      }
      const engine::RunOutcome& o = r.value();
      if (first && site.squash_artifacts.size() > known) {
        // The squash image this start's conversion made (for the flat
        // engines, the payload of the flat image): the one entry no
        // earlier image owns.
        for (const auto& entry : site.squash_artifacts)
          if (std::find(squash.begin(), squash.end(), entry.second.get()) ==
              squash.end())
            squash[st.image] = entry.second.get();
      }
      const vfs::SquashImage* mount_image =
          squash[st.image] != nullptr ? squash[st.image] : &img.published;
      registry::LazyMountConfig lc;
      lc.registry = &origin;
      lc.network = &cluster.network();
      lc.node = st.node;
      lc.cache = storage::page_cache_tier(cluster.page_cache(st.node));
      auto mount = registry::make_lazy_rootfs(mount_image, std::move(lc));
      if (!mount.ok()) {
        ++out.failed;
        out.errors.push_back(ename + ": " + mount.error().to_string());
        continue;
      }
      SimTime t = o.create_done;
      bool read_ok = true;
      for (const auto& path : st.reads) {
        Bytes data;
        Result<SimTime> rd = err_internal("not read");
        {
          Spans::Scope span(spans, "storage.read", path);
          rd = mount.value()->read_file(t, path, &data);
        }
        if (!rd.ok()) {
          out.errors.push_back(ename + " " + path + ": " +
                               rd.error().to_string());
          read_ok = false;
          break;
        }
        t = rd.value();
        if (auto e = checks::bytes_equal(&data, img.files.at(path),
                                         ename + " read " + path);
            !e.empty()) {
          out.errors.push_back(e);
          read_ok = false;
        }
      }
      if (!read_ok) ++out.failed;

      // ----- checks on the start itself
      for (auto e :
           {checks::conversion_hit(
                o.conversion_cache_hit,
                model.start(img.ref.repository, user_of(st.node))),
            checks::stage_order(st.submit, o),
            first ? checks::first_pull_bytes(o.bytes_pulled, img.pushed_bytes)
                  : std::string()})
        if (!e.empty()) out.errors.push_back(ename + " " + img.ref.repository +
                                             ": " + e);
      if (!o.conversion_cache_hit) ++conversions;
      pulled += o.bytes_pulled;
      latency_ms.push_back(
          static_cast<double>(o.cold_start_latency(st.submit)) / 1e3);
      out.sim.push_back(o.create_done);
      out.sim.push_back(t);
    }
    wan += cluster.network().wan_bytes();
  }
  out.sim.push_back(static_cast<SimTime>(wan));

  out.layer["engine.start_p50_ms"] = percentile(latency_ms, 0.50);
  out.layer["engine.start_p95_ms"] = percentile(latency_ms, 0.95);
  out.layer["engine.conversions"] = static_cast<double>(conversions);
  out.layer["registry.wan_mb"] = static_cast<double>(wan) / kMiB;
  out.layer["registry.pull_mb"] = static_cast<double>(pulled) / kMiB;
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_container_start(std::uint64_t seed) {
  return std::make_unique<ContainerStart>(seed);
}

}  // namespace perfbench
