// Cluster serving demo: stand up a 3-node serve::Cluster over a sharded
// tiny campaign, warm the fleet, drive skewed traffic at the router —
// watching the hot granule spread over its replica set and products hop
// between nodes via peer fetch — then kill the hot key's owning node and
// show the consistent-hash ring re-routing its keys to the survivors, who
// recover from the shared disk tier without shard IO or inference. Ends
// with the merged fleet-wide Prometheus exposition (per-node `node` label).
//
//   ./examples/cluster
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/campaign.hpp"
#include "core/config.hpp"
#include "h5lite/granule_io.hpp"
#include "mapred/engine.hpp"
#include "obs/export.hpp"
#include "serve/cluster.hpp"
#include "util/rng.hpp"

int main() {
  using namespace is2;
  using atl03::BeamId;

  // 1. Data plane: one simulated granule, sharded and indexed for serving.
  const core::PipelineConfig config = core::PipelineConfig::tiny();
  const core::Campaign campaign(config);
  std::printf("== generating + sharding granule %s ==\n",
              campaign.pairs()[1].granule_id.c_str());
  const core::PairDataset pair = campaign.generate(1);

  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("is2_cluster_demo_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::create_directories(dir);
  core::ShardSet shards;
  core::write_shards(pair.granule, 0, 2, dir, shards);
  const serve::ShardIndex index = serve::ShardIndex::build(shards.files);

  // 2. Model + scaler, identical on every node (what makes cache keys and
  //    products portable across the fleet).
  const auto merged =
      serve::ShardIndex::load_merged(*index.find(pair.granule.id, BeamId::Gt1r));
  const auto pre = atl03::preprocess_beam(merged, merged.beams[0], campaign.corrections(),
                                          config.preprocess);
  auto segs = resample::resample(pre, config.segmenter);
  const resample::FirstPhotonBiasCorrector fpb(config.instrument.dead_time_m,
                                               config.instrument.strong_channels);
  fpb.apply(segs);
  const auto features = resample::to_features(segs, resample::rolling_baseline(segs));
  const resample::FeatureScaler scaler = resample::FeatureScaler::fit(features);
  const auto model_factory = [&config] {
    util::Rng rng(99);
    return nn::make_lstm_model(config.sequence_window, resample::FeatureRow::kDim, rng);
  };

  // 3. The fleet: 3 nodes behind the consistent-hash router, replica sets
  //    of 2 for hot keys and peer fetch, one shared disk tier.
  serve::ClusterConfig ccfg;
  ccfg.nodes = 3;
  ccfg.replication_factor = 2;
  ccfg.hot_key_threshold = 4;
  ccfg.node.disk_cache_dir = dir + "/fleet_cache";
  ccfg.node.workers = 1;
  ccfg.node.queue_capacity = 8;
  serve::Cluster cluster(ccfg, config, campaign.corrections(), index, model_factory, scaler);
  std::printf("fleet: %zu nodes x %zu workers, rf=%zu, hot threshold %llu, shared disk %s\n",
              cluster.num_nodes(), ccfg.node.workers, ccfg.replication_factor,
              static_cast<unsigned long long>(ccfg.hot_key_threshold),
              ccfg.node.disk_cache_dir.c_str());

  // 4. Warm the fleet: every (granule, beam) prefetches its classification
  //    prefix on its owning node; later deep requests resume from it.
  mapred::Engine engine({1, 2});
  std::vector<serve::ProductRequest> all;
  for (const auto& [granule, beam] : index.entries()) {
    serve::ProductRequest r;
    r.granule_id = granule;
    r.beam = beam;
    all.push_back(r);
  }
  std::printf("== warm(): %zu shallow products prefetched to their owners ==\n",
              cluster.warm(all, engine));

  // 5. Skewed traffic: most requests hammer one hot product (which crosses
  //    the threshold and spreads over its replica set — the first request
  //    each replica sees peer-fetches the resident product instead of
  //    rebuilding), the rest spread across beams/methods.
  serve::ProductRequest hot;
  hot.granule_id = pair.granule.id;
  hot.beam = BeamId::Gt1r;
  hot.priority = serve::Priority::interactive;
  const std::uint32_t hot_owner = cluster.owner_of(cluster.key_for(hot));

  const BeamId beams[] = {BeamId::Gt1r, BeamId::Gt2r, BeamId::Gt3r};
  const seasurface::Method methods[] = {seasurface::Method::NasaEquation,
                                        seasurface::Method::MinElevation};
  std::printf("== driving 60 requests (hot key owned by node%u) from 3 clients ==\n",
              hot_owner);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(500 + c);
      for (int i = 0; i < 20; ++i) {
        serve::ProductRequest r = hot;
        if (rng.uniform() > 0.7) {
          r.beam = beams[rng.next() % 3];
          r.method = methods[rng.next() % 2];
          r.priority = serve::Priority::background;
        }
        if (auto f = cluster.try_submit(r)) {
          try {
            f->get();
          } catch (const serve::ShedError&) {
            // displaced by a more important admission — retryable
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // Router counters live in the cluster's registry; node counters in each
  // node's own.
  const obs::RegistrySnapshot router = cluster.registry().snapshot();
  const auto count = [&router](const char* name, const obs::Labels& labels = {}) {
    const obs::MetricPoint* p = router.find(name, labels);
    return p ? static_cast<unsigned long long>(p->value) : 0ull;
  };
  std::printf("\n== router and node counters after traffic ==\n");
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    const serve::ServiceMetrics m = cluster.node(i).metrics();
    std::printf("node%zu  routed %-4llu  fast hits %-4llu  builds %-3llu  resumed %llu\n", i,
                count("is2_cluster_routed_total", {{"node", "node" + std::to_string(i)}}),
                static_cast<unsigned long long>(m.fast_hits),
                static_cast<unsigned long long>(m.scheduler.completed),
                static_cast<unsigned long long>(m.resumed_builds));
  }
  std::printf("imbalance %.2fx | hot keys %llu | replica routes %llu | "
              "peer probes %llu -> %llu fetches (each one skipped shard IO + inference)\n",
              cluster.imbalance(), count("is2_cluster_hot_key_total"),
              count("is2_cluster_replica_route_total"), count("is2_cluster_peer_probe_total"),
              count("is2_cluster_peer_fetch_total"));
  const serve::DiskCacheStats disk = cluster.shared_disk()->stats();
  std::printf("shared disk: %llu writes, %llu hits, %zu files\n",
              static_cast<unsigned long long>(disk.writes),
              static_cast<unsigned long long>(disk.hits), disk.entries);

  // 6. Kill the hot key's owner. The ring drops only that node's ranges
  //    (minimal churn), the key re-routes to a survivor, and the product
  //    comes back from peer RAM or the shared disk tier — no shard IO.
  cluster.wait_disk_writebacks();
  std::printf("\n== killing node%u (the hot key's owner) ==\n", hot_owner);
  cluster.kill_node(hot_owner);
  const std::uint32_t new_owner = cluster.owner_of(cluster.key_for(hot));
  const auto loads_before = h5::load_granule_call_count();
  const auto rerouted = cluster.submit(hot).get();
  const bool reread_shards = h5::load_granule_call_count() != loads_before;
  std::printf("%zu/%zu nodes live; hot key re-routed node%u -> node%u, served from %s "
              "(%s shard IO)\n",
              cluster.live_count(), cluster.num_nodes(), hot_owner, new_owner,
              rerouted.source == serve::ServedFrom::disk  ? "the shared disk tier"
              : rerouted.source == serve::ServedFrom::ram ? "replica RAM"
                                                          : "a rebuild",
              reread_shards ? "with" : "without any");
  // The fleet invariant this demo exists to show (and CI smoke-tests): a
  // survivor serves a dead owner's key from a warm tier, never by re-reading
  // shards or rebuilding from scratch.
  if (new_owner == hot_owner || rerouted.source == serve::ServedFrom::build || reread_shards) {
    std::fprintf(stderr, "cluster demo: node-kill recovery hit a cold path\n");
    return 1;
  }

  // 7. Fleet-wide observability: one merged snapshot, node-local points
  //    tagged with the bounded-cardinality `node` label.
  const std::string prom = obs::to_prometheus(cluster.obs_snapshot());
  std::printf("\n== merged Prometheus exposition: %zu bytes; excerpt ==\n", prom.size());
  std::size_t shown = 0, at = 0;
  while (at < prom.size() && shown < 8) {
    const std::size_t end = prom.find('\n', at);
    const std::string line = prom.substr(at, end - at);
    at = end + 1;
    if (line.rfind("is2_cluster_", 0) == 0 ||
        (line.rfind("is2_serve_requests_total", 0) == 0 && line.find("node=") != std::string::npos)) {
      std::printf("  %s\n", line.c_str());
      ++shown;
    }
  }

  cluster.shutdown();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return 0;
}
