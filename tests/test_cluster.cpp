// Cluster-layer tests: HashRing balance and minimal-churn properties,
// consistent-hash routing determinism, hot-key replica spreading, the peer
// RAM fetch (counter-asserted to skip shard IO and inference), node kill +
// re-route through the shared disk tier, warm() shallow prefetch feeding
// the cross-tier resume on the owning node, merged per-node observability
// snapshots, and bit-identity of cluster-served products with a single
// GranuleService across every path (route, peer fetch, rebuild after a
// kill).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "core/campaign.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "h5lite/granule_io.hpp"
#include "mapred/engine.hpp"
#include "obs/export.hpp"
#include "serve/cluster.hpp"
#include "serve/hash_ring.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace is2;
using atl03::BeamId;
using serve::Cluster;
using serve::ClusterConfig;
using serve::GranuleProduct;
using serve::HashRing;
using serve::ProductKey;
using serve::ProductRequest;
using serve::ServedFrom;

/// Field-exact comparison — the bit-identity bar cluster serving must clear
/// against a single-node service on every path.
void expect_bit_identical(const GranuleProduct& a, const GranuleProduct& b) {
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].s, b.segments[i].s);
    EXPECT_EQ(a.segments[i].h_mean, b.segments[i].h_mean);
    EXPECT_EQ(a.segments[i].h_std, b.segments[i].h_std);
    EXPECT_EQ(a.segments[i].photon_rate, b.segments[i].photon_rate);
  }
  ASSERT_EQ(a.classes, b.classes);
  ASSERT_EQ(a.sea_surface.points().size(), b.sea_surface.points().size());
  for (std::size_t i = 0; i < a.sea_surface.points().size(); ++i) {
    EXPECT_EQ(a.sea_surface.points()[i].s, b.sea_surface.points()[i].s);
    EXPECT_EQ(a.sea_surface.points()[i].h_ref, b.sea_surface.points()[i].h_ref);
  }
  ASSERT_EQ(a.freeboard.points.size(), b.freeboard.points.size());
  for (std::size_t i = 0; i < a.freeboard.points.size(); ++i) {
    EXPECT_EQ(a.freeboard.points[i].s, b.freeboard.points[i].s);
    EXPECT_EQ(a.freeboard.points[i].freeboard, b.freeboard.points[i].freeboard);
    EXPECT_EQ(a.freeboard.points[i].cls, b.freeboard.points[i].cls);
  }
}

/// A router counter from the cluster's registry.
std::uint64_t counter(const Cluster& cluster, const std::string& name,
                      const obs::Labels& labels = {}) {
  const obs::RegistrySnapshot snap = cluster.registry().snapshot();
  const obs::MetricPoint* p = snap.find(name, labels);
  EXPECT_NE(p, nullptr) << name;
  return p ? static_cast<std::uint64_t>(p->value) : 0;
}

/// Requests the router sent to node `i`.
std::uint64_t routed(const Cluster& cluster, std::size_t i) {
  return counter(cluster, "is2_cluster_routed_total", {{"node", "node" + std::to_string(i)}});
}

// ---------------------------------------------------------------------------
// HashRing (pure, no campaign)
// ---------------------------------------------------------------------------

TEST(HashRing, MembershipAndEmptyRing) {
  HashRing ring(8);
  EXPECT_EQ(ring.num_nodes(), 0u);
  EXPECT_THROW(ring.owner(123), std::runtime_error);
  EXPECT_TRUE(ring.replicas(123, 2).empty());

  ring.add(0);
  ring.add(0);  // idempotent
  EXPECT_EQ(ring.num_nodes(), 1u);
  EXPECT_TRUE(ring.contains(0));
  EXPECT_FALSE(ring.contains(1));
  EXPECT_EQ(ring.owner(123), 0u);  // single node owns everything

  ring.remove(0);
  ring.remove(0);  // idempotent
  EXPECT_EQ(ring.num_nodes(), 0u);
}

TEST(HashRing, ReplicasAreDistinctOwnerFirstAndCapped) {
  HashRing ring(64);
  for (std::uint32_t n = 0; n < 4; ++n) ring.add(n);

  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t h = util::hash64(i);
    const auto reps = ring.replicas(h, 3);
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_EQ(reps.front(), ring.owner(h));
    std::vector<std::uint32_t> sorted = reps;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end()) << "key " << i;
  }
  // Asking for more replicas than nodes returns all nodes, once each.
  auto all = ring.replicas(util::hash64(7), 10);
  EXPECT_EQ(all.size(), 4u);
}

TEST(HashRing, BalanceBoundAcrossSyntheticKeys) {
  // The balance property the cluster leans on: at the default 128 vnodes
  // per node, no node owns much more than its fair share of a synthetic
  // keyspace, at any plausible fleet size. (A node's share spreads as
  // ~1/sqrt(vnodes), so this is a real design constraint: 64 vnodes
  // measurably breaks the 1.25 bound.)
  constexpr std::size_t kKeys = 1000;
  for (const std::size_t nodes : {2u, 3u, 4u, 5u, 8u}) {
    HashRing ring;  // default vnodes
    for (std::uint32_t n = 0; n < nodes; ++n) ring.add(n);

    std::vector<std::size_t> load(nodes, 0);
    for (std::uint64_t i = 0; i < kKeys; ++i) ++load[ring.owner(util::hash64(i))];

    const std::size_t max = *std::max_element(load.begin(), load.end());
    const double mean = static_cast<double>(kKeys) / static_cast<double>(nodes);
    EXPECT_GT(*std::min_element(load.begin(), load.end()), 0u);
    EXPECT_LE(static_cast<double>(max) / mean, 1.25) << "fleet of " << nodes;
  }
}

TEST(HashRing, AddingANodeRemapsOnlyItsShare) {
  // Minimal churn: growing N -> N+1 moves ~K/(N+1) keys, all TO the new
  // node; removing it restores the original assignment exactly.
  constexpr std::size_t kNodes = 4;
  constexpr std::size_t kKeys = 1000;
  HashRing ring;
  for (std::uint32_t n = 0; n < kNodes; ++n) ring.add(n);

  std::vector<std::uint32_t> before(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) before[i] = ring.owner(util::hash64(i));

  ring.add(kNodes);
  std::size_t remapped = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::uint32_t now = ring.owner(util::hash64(i));
    if (now != before[i]) {
      ++remapped;
      EXPECT_EQ(now, kNodes) << "churned key moved between old nodes";
    }
  }
  // Expected share is K/(N+1) = 200; allow generous statistical slack but
  // stay far below the ~K remaps naive modulo hashing would cost.
  EXPECT_GT(remapped, 0u);
  EXPECT_LE(remapped, 2 * kKeys / (kNodes + 1));

  ring.remove(kNodes);
  for (std::uint64_t i = 0; i < kKeys; ++i)
    ASSERT_EQ(ring.owner(util::hash64(i)), before[i]) << "key " << i;
}

// ---------------------------------------------------------------------------
// Cluster on a tiny campaign
// ---------------------------------------------------------------------------

class ClusterCampaign : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new core::PipelineConfig(core::PipelineConfig::tiny());
    campaign_ = new core::Campaign(*config_);
    pair_ = new core::PairDataset(campaign_->generate(1));

    dir_ = (std::filesystem::temp_directory_path() /
            ("is2_cluster_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
    shards_ = new core::ShardSet();
    core::write_shards(pair_->granule, 0, /*chunks_per_beam=*/2, dir_, *shards_);
    index_ = new serve::ShardIndex(serve::ShardIndex::build(shards_->files));

    const auto* files = index_->find(pair_->granule.id, BeamId::Gt1r);
    ASSERT_NE(files, nullptr);
    const auto merged = serve::ShardIndex::load_merged(*files);
    const auto pre = atl03::preprocess_beam(merged, merged.beams[0],
                                            campaign_->corrections(), config_->preprocess);
    auto segments = resample::resample(pre, config_->segmenter);
    const resample::FirstPhotonBiasCorrector fpb(config_->instrument.dead_time_m,
                                                 config_->instrument.strong_channels);
    fpb.apply(segments);
    const auto features =
        resample::to_features(segments, resample::rolling_baseline(segments));
    scaler_ = new resample::FeatureScaler(resample::FeatureScaler::fit(features));
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    delete scaler_;
    delete index_;
    delete shards_;
    delete pair_;
    delete campaign_;
    delete config_;
    scaler_ = nullptr;
    index_ = nullptr;
    shards_ = nullptr;
    pair_ = nullptr;
    campaign_ = nullptr;
    config_ = nullptr;
  }

  /// Deterministic model: every node (and the single-node reference) gets
  /// identical weights, the property that makes products fleet-portable.
  static nn::Sequential make_model() {
    util::Rng rng(99);
    return nn::make_lstm_model(config_->sequence_window, resample::FeatureRow::kDim, rng);
  }

  static std::unique_ptr<Cluster> make_cluster(ClusterConfig cfg) {
    return std::make_unique<Cluster>(cfg, *config_, campaign_->corrections(), *index_,
                                     &ClusterCampaign::make_model, *scaler_);
  }

  static std::unique_ptr<serve::GranuleService> make_single_node(serve::ServiceConfig cfg) {
    return std::make_unique<serve::GranuleService>(cfg, *config_, campaign_->corrections(),
                                                   *index_, &ClusterCampaign::make_model,
                                                   *scaler_);
  }

  static ProductRequest request(BeamId beam) {
    ProductRequest r;
    r.granule_id = pair_->granule.id;
    r.beam = beam;
    return r;
  }

  static core::PipelineConfig* config_;
  static core::Campaign* campaign_;
  static core::PairDataset* pair_;
  static core::ShardSet* shards_;
  static serve::ShardIndex* index_;
  static resample::FeatureScaler* scaler_;
  static std::string dir_;
};

core::PipelineConfig* ClusterCampaign::config_ = nullptr;
core::Campaign* ClusterCampaign::campaign_ = nullptr;
core::PairDataset* ClusterCampaign::pair_ = nullptr;
core::ShardSet* ClusterCampaign::shards_ = nullptr;
serve::ShardIndex* ClusterCampaign::index_ = nullptr;
resample::FeatureScaler* ClusterCampaign::scaler_ = nullptr;
std::string ClusterCampaign::dir_;

TEST_F(ClusterCampaign, RoutingIsDeterministicAndKeysAreFleetPortable) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.node.workers = 1;
  auto cluster = make_cluster(cfg);

  const ProductRequest r = request(BeamId::Gt1r);
  const ProductKey key = cluster->key_for(r);
  // Identical config + model on every node -> identical keys everywhere
  // (what makes route-by-key and peer fetch sound).
  for (std::size_t i = 0; i < cluster->num_nodes(); ++i)
    EXPECT_EQ(cluster->node(i).key_for(r), key);

  const std::uint32_t owner = cluster->owner_of(key);
  const auto reps = cluster->replica_set_of(key);
  ASSERT_EQ(reps.size(), cfg.replication_factor);
  EXPECT_EQ(reps.front(), owner);
  EXPECT_NE(reps[0], reps[1]);

  // All stage-graph depths of one granule co-locate (the ring hash is
  // kind-normalized), so a warmed shallow prefix can seed deeper requests.
  ProductRequest shallow = r;
  shallow.kind = pipeline::ProductKind::classification;
  EXPECT_EQ(cluster->owner_of(cluster->key_for(shallow)), owner);

  // Cold keys are owner-routed: both requests land on the same node.
  ASSERT_NE(cluster->submit(r).get().product, nullptr);
  ASSERT_NE(cluster->submit(r).get().product, nullptr);
  std::uint64_t requests = 0;
  for (std::size_t i = 0; i < cluster->num_nodes(); ++i) requests += routed(*cluster, i);
  EXPECT_EQ(requests, 2u);
  EXPECT_EQ(routed(*cluster, owner), 2u);
  EXPECT_EQ(cluster->node(owner).metrics().fast_hits, 1u);  // second request RAM-hit there
  // Never crossed the hot threshold.
  EXPECT_EQ(counter(*cluster, "is2_cluster_replica_route_total"), 0u);
  EXPECT_DOUBLE_EQ(cluster->imbalance(), 3.0);  // all load on 1 of 3 live nodes
}

TEST_F(ClusterCampaign, PeerFetchSkipsShardIoAndInference) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.replication_factor = 2;
  cfg.hot_key_threshold = 1;  // every request is hot: replica round-robin
  cfg.node.workers = 1;
  auto cluster = make_cluster(cfg);

  const ProductRequest r = request(BeamId::Gt1r);
  const auto reps = cluster->replica_set_of(cluster->key_for(r));
  ASSERT_EQ(reps.size(), 2u);

  // Request 1 round-robins to reps[0] (the owner) and cold-builds there.
  const auto first = cluster->submit(r).get();
  ASSERT_NE(first.product, nullptr);
  EXPECT_EQ(first.source, ServedFrom::build);
  EXPECT_GT(counter(*cluster, "is2_cluster_hot_key_total"), 0u);

  // Request 2 lands on reps[1], whose RAM is cold — the router probes the
  // replica set, finds the product on reps[0], and promotes it across.
  const auto loads_before = h5::load_granule_call_count();
  const auto second = cluster->submit(r).get();
  ASSERT_NE(second.product, nullptr);
  EXPECT_TRUE(second.from_cache);
  // The resident object itself moved across nodes: pointer-equal, hence
  // bit-identical by construction.
  EXPECT_EQ(second.product.get(), first.product.get());
  EXPECT_EQ(h5::load_granule_call_count(), loads_before);  // no shard IO

  EXPECT_EQ(counter(*cluster, "is2_cluster_peer_fetch_total"), 1u);
  EXPECT_GE(counter(*cluster, "is2_cluster_peer_probe_total"), 1u);
  EXPECT_EQ(routed(*cluster, reps[1]), 1u);
  EXPECT_EQ(counter(*cluster, "is2_cluster_replica_route_total"), 1u);
  // The fetching node served from RAM without ever running the pipeline.
  const auto fetcher = cluster->node(reps[1]).metrics();
  EXPECT_EQ(fetcher.inference_windows, 0u);
  EXPECT_EQ(fetcher.scheduler.dispatched, 0u);
  EXPECT_EQ(fetcher.fast_hits, 1u);
  EXPECT_GT(cluster->node(reps[0]).metrics().inference_windows, 0u);
}

TEST_F(ClusterCampaign, NodeKillReRoutesThroughSharedDiskBitIdentically) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.replication_factor = 1;  // owner-only: the kill must do the re-route
  cfg.node.workers = 1;
  cfg.node.disk_cache_dir = dir_ + "/cluster_disk_kill";
  auto cluster = make_cluster(cfg);
  ASSERT_NE(cluster->shared_disk(), nullptr);

  // Single-node reference: the ground truth every cluster path must match.
  GranuleProduct reference;
  {
    serve::ServiceConfig single;
    single.workers = 1;
    auto service = make_single_node(single);
    reference = *service->submit(request(BeamId::Gt2r)).get().product;
  }

  const ProductRequest r = request(BeamId::Gt2r);
  const std::uint32_t owner = cluster->owner_of(cluster->key_for(r));
  const auto cold = cluster->submit(r).get();
  ASSERT_NE(cold.product, nullptr);
  EXPECT_EQ(cold.source, ServedFrom::build);
  expect_bit_identical(*cold.product, reference);
  cluster->wait_disk_writebacks();
  EXPECT_EQ(cluster->shared_disk()->stats().writes, 1u);

  cluster->kill_node(owner);
  cluster->kill_node(owner);  // idempotent
  EXPECT_FALSE(cluster->is_live(owner));
  EXPECT_EQ(cluster->live_count(), 2u);

  // The key re-routes to a surviving node (minimal churn moved only the dead
  // node's ranges) and recovers from the shared cold tier without shard IO.
  const std::uint32_t new_owner = cluster->owner_of(cluster->key_for(r));
  EXPECT_NE(new_owner, owner);
  const auto loads_before = h5::load_granule_call_count();
  const auto rerouted = cluster->submit(r).get();
  ASSERT_NE(rerouted.product, nullptr);
  EXPECT_EQ(rerouted.source, ServedFrom::disk);
  EXPECT_EQ(h5::load_granule_call_count(), loads_before);  // no shard IO
  expect_bit_identical(*rerouted.product, reference);

  EXPECT_GE(cluster->shared_disk()->stats().hits, 1u);
  EXPECT_EQ(routed(*cluster, new_owner), 1u);
  EXPECT_EQ(cluster->node(new_owner).metrics().inference_windows, 0u);  // disk hit, no build
}

TEST_F(ClusterCampaign, WarmPrefetchesShallowKindAndSeedsDeepening) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.workers = 1;
  auto cluster = make_cluster(cfg);

  std::vector<ProductRequest> all;
  for (const auto& [granule, beam] : index_->entries()) {
    ProductRequest r;
    r.granule_id = granule;
    r.beam = beam;
    all.push_back(r);  // full freeboard kind: warm must shallow it
  }
  ASSERT_FALSE(all.empty());
  mapred::Engine engine({1, 2});
  EXPECT_EQ(cluster->warm(all, engine), all.size());
  EXPECT_EQ(cluster->warm(all, engine), 0u);  // idempotent

  // Warm never deepens: every node holds classification-kind products only,
  // and warm traffic stayed out of the scheduler queues and the popularity
  // ledger (nothing is hot, nothing replica-routed).
  std::size_t warmed_entries = 0;
  for (std::size_t i = 0; i < cluster->num_nodes(); ++i) {
    const auto nm = cluster->node(i).metrics();
    warmed_entries += nm.cache.entries;
    EXPECT_EQ(nm.scheduler.dispatched, 0u);
  }
  EXPECT_EQ(warmed_entries, all.size());
  EXPECT_EQ(counter(*cluster, "is2_cluster_hot_key_total"), 0u);

  // A deep request now resumes from the warmed prefix on its owner: no
  // shard IO, no inference, only the seasurface + freeboard suffix.
  const ProductRequest r = request(BeamId::Gt1r);
  const std::uint32_t owner = cluster->owner_of(cluster->key_for(r));
  const auto windows_before = cluster->node(owner).metrics().inference_windows;
  const auto loads_before = h5::load_granule_call_count();
  const auto deep = cluster->submit(r).get();
  ASSERT_NE(deep.product, nullptr);
  EXPECT_EQ(deep.source, ServedFrom::build);  // a build, but a resumed one
  EXPECT_EQ(h5::load_granule_call_count(), loads_before);

  const auto nm = cluster->node(owner).metrics();
  EXPECT_EQ(nm.resumed_builds, 1u);
  EXPECT_EQ(nm.inference_windows, windows_before);

  // Bit-identical to a single node running the same warm-then-deepen flow.
  serve::ServiceConfig single;
  single.workers = 1;
  auto service = make_single_node(single);
  expect_bit_identical(*deep.product, *service->submit(r).get().product);
}

TEST_F(ClusterCampaign, MergedSnapshotLabelsNodePointsAndStaysSorted) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.workers = 1;
  auto cluster = make_cluster(cfg);
  ASSERT_NE(cluster->submit(request(BeamId::Gt1r)).get().product, nullptr);

  const obs::RegistrySnapshot snap = cluster->obs_snapshot();
  ASSERT_FALSE(snap.points.empty());
  // The exporter contract: points sorted by (name, labels) so each family
  // is contiguous and HELP/TYPE are emitted once.
  EXPECT_TRUE(std::is_sorted(snap.points.begin(), snap.points.end(),
                             [](const obs::MetricPoint& a, const obs::MetricPoint& b) {
                               return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
                             }));

  auto node_label_of = [](const obs::MetricPoint& p) -> std::string {
    for (const auto& [k, v] : p.labels)
      if (k == "node") return v;
    return "";
  };
  std::size_t node_labeled = 0;
  for (const obs::MetricPoint& p : snap.points) {
    const std::string node = node_label_of(p);
    if (p.name.rfind("is2_cluster_", 0) == 0 && p.name != "is2_cluster_routed_total") {
      // Router-level instruments are fleet-scoped, not per node.
      EXPECT_EQ(node, "") << p.name;
    } else if (p.name.rfind("is2_sched_", 0) == 0 || p.name.rfind("is2_serve_", 0) == 0) {
      // Node-local instruments carry the bounded-cardinality node label.
      ASSERT_NE(node, "") << p.name;
      EXPECT_TRUE(node == "node0" || node == "node1") << node;
    }
    if (!node.empty()) ++node_labeled;
    // Label sets stay sorted after the node-label insert.
    EXPECT_TRUE(std::is_sorted(p.labels.begin(), p.labels.end())) << p.name;
  }
  EXPECT_GT(node_labeled, 0u);

  // And the whole thing renders as one valid exposition.
  const std::string prom = obs::to_prometheus(snap);
  EXPECT_NE(prom.find("# HELP is2_cluster_peer_probe_total"), std::string::npos);
  EXPECT_NE(prom.find("node=\"node1\""), std::string::npos);
}

TEST_F(ClusterCampaign, ShutdownIsIdempotentAndRefusesNewTraffic) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.workers = 1;
  auto cluster = make_cluster(cfg);
  ASSERT_NE(cluster->submit(request(BeamId::Gt1r)).get().product, nullptr);
  cluster->shutdown();
  cluster->shutdown();
  EXPECT_THROW(cluster->submit(request(BeamId::Gt1r)), std::runtime_error);
  EXPECT_THROW(cluster->try_submit(request(BeamId::Gt1r)), std::runtime_error);
}

}  // namespace
