#include "serve/cluster.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/backoff.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace is2::serve {

namespace {

/// Keys the popularity ledger holds before it resets (a crude decay).
constexpr std::size_t kPopularityCapacity = 1u << 16;
/// Hot ledger keys re-replicated off a freshly quarantined node onto their
/// new owners — bounds the healing work done per transition.
constexpr std::size_t kRereplicateLimit = 64;
/// Peer-fetch resilience: retries per peer after a thrown probe, and the
/// (seeded) backoff between them.
constexpr std::size_t kPeerRetries = 1;
constexpr util::BackoffConfig kPeerBackoff{0.2, 5.0};

}  // namespace

std::uint64_t Cluster::ring_hash(const ProductKey& key) {
  // ProductKeyHash already mixes every key field; one more mix round
  // decorrelates it from the ring-point distribution.
  return util::hash64(static_cast<std::uint64_t>(ProductKeyHash{}(key)));
}

std::uint64_t Cluster::routing_hash(const ProductKey& key) const {
  // Ring placement is by the *shallow* (classification-kind) key of the
  // same request, not the exact key. Product fingerprints are
  // stage-prefix-scoped (see GranuleService::key_for_kind): the
  // classification fingerprint ignores both deeper-stage config and the
  // sea-surface method, so every stage depth and method of one (granule,
  // beam, backend) lands on the same node — a warm()'d classification
  // prefix is resident exactly where a later freeboard or
  // different-method request routes, keeping cross-tier resume fleet-wide.
  // Caches are still looked up by the exact key; only placement coarsens.
  if (key.kind == pipeline::ProductKind::classification) return ring_hash(key);
  ProductRequest shallow;
  shallow.granule_id = key.granule_id;
  shallow.beam = key.beam;
  shallow.backend = key.backend;
  shallow.kind = pipeline::ProductKind::classification;
  return ring_hash(key_for(shallow));
}

Cluster::Cluster(const ClusterConfig& config, const core::PipelineConfig& pipeline,
                 const geo::GeoCorrections& corrections, const ShardIndex& index,
                 GranuleService::ModelFactory model_factory, resample::FeatureScaler scaler,
                 GranuleService::TreeFactory tree_factory)
    : config_(config) {
  const std::size_t n = config_.nodes ? config_.nodes : 1;
  config_.nodes = n;
  peer_probe_total_ = &registry_.counter("is2_cluster_peer_probe_total", {},
                                         "peer RAM-tier probes on a target miss");
  peer_fetch_total_ =
      &registry_.counter("is2_cluster_peer_fetch_total", {},
                         "peer probes that hit and promoted (shard IO + inference avoided)");
  replica_route_total_ = &registry_.counter("is2_cluster_replica_route_total", {},
                                            "hot-key requests routed off-owner");
  hot_key_total_ = &registry_.counter("is2_cluster_hot_key_total", {},
                                      "keys promoted past hot_key_threshold");
  node_failure_total_ = &registry_.counter("is2_cluster_node_failures_total", {},
                                           "thrown submits/probes against live nodes");
  quarantine_total_ = &registry_.counter("is2_cluster_quarantine_total", {},
                                         "live -> quarantined transitions");
  revive_total_ = &registry_.counter("is2_cluster_revive_total", {},
                                     "quarantined -> live transitions");
  rereplicated_total_ = &registry_.counter("is2_cluster_rereplicated_keys_total", {},
                                           "hot keys re-replicated off quarantined nodes");
  live_nodes_gauge_ =
      &registry_.gauge("is2_cluster_live_nodes", {}, "nodes currently in the ring");
  quarantined_gauge_ = &registry_.gauge("is2_cluster_quarantined_nodes", {},
                                        "nodes out of the ring but revivable");

  if (!config_.node.disk_cache_dir.empty()) {
    disk_ = std::make_unique<DiskCache>(DiskCacheConfig{
        config_.node.disk_cache_dir, config_.node.disk_cache_bytes, &registry_});
  }

  // Every node gets the same config/model (keys must be fleet-portable) and
  // borrows the cluster's disk tier; a per-node private tier would defeat
  // re-routing and double-open the directory.
  ServiceConfig node_cfg = config_.node;
  node_cfg.disk_cache_dir.clear();
  node_cfg.shared_disk = disk_.get();

  nodes_.reserve(n);
  routed_total_.reserve(n);
  state_.assign(n, NodeState::live);
  consecutive_failures_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    routed_total_.push_back(&registry_.counter("is2_cluster_routed_total",
                                               {{"node", "node" + std::to_string(i)}},
                                               "requests routed to the node"));
    nodes_.push_back(std::make_unique<GranuleService>(node_cfg, pipeline, corrections, index,
                                                      model_factory, scaler, tree_factory));
    ring_.add(static_cast<std::uint32_t>(i));
  }
  live_nodes_gauge_->set(static_cast<double>(n));
}

Cluster::~Cluster() { shutdown(); }

ProductKey Cluster::key_for(const ProductRequest& request) const {
  return nodes_.front()->key_for(request);
}

std::uint32_t Cluster::owner_of(const ProductKey& key) const {
  const std::uint64_t h = routing_hash(key);
  util::MutexLock lock(mutex_);
  return ring_.owner(h);
}

std::vector<std::uint32_t> Cluster::replica_set_of(const ProductKey& key) const {
  const std::uint64_t h = routing_hash(key);
  util::MutexLock lock(mutex_);
  return ring_.replicas(h, std::max<std::size_t>(config_.replication_factor, 1));
}

std::size_t Cluster::live_count() const {
  util::MutexLock lock(mutex_);
  return static_cast<std::size_t>(std::count(state_.begin(), state_.end(), NodeState::live));
}

bool Cluster::is_live(std::size_t i) const {
  util::MutexLock lock(mutex_);
  return i < state_.size() && state_[i] == NodeState::live;
}

Cluster::Route Cluster::route(const ProductRequest& request) {
  ProductKey key = key_for(request);
  const std::uint64_t h = routing_hash(key);
  util::MutexLock lock(mutex_);
  if (shut_down_) throw std::runtime_error("Cluster: shut down");
  if (ring_.num_nodes() == 0) throw std::runtime_error("Cluster: no live nodes");

  // Approximate popularity: reset-on-full is a crude decay, but the hot set
  // only steers replica round-robin — a wrong "cold" verdict just means
  // owner-routing, never a wrong answer.
  if (popularity_.size() >= kPopularityCapacity) popularity_.clear();
  std::uint64_t& count = popularity_[key];
  ++count;
  if (count == config_.hot_key_threshold) hot_key_total_->inc();

  std::size_t target;
  if (count >= config_.hot_key_threshold && config_.replication_factor > 1) {
    const auto reps = ring_.replicas(h, config_.replication_factor);
    target = reps[hot_rr_++ % reps.size()];
    if (target != reps.front()) replica_route_total_->inc();
  } else {
    target = ring_.owner(h);
  }
  routed_total_[target]->inc();
  return Route{std::move(key), h, target};
}

bool Cluster::peer_fetch(const ProductKey& key, std::uint64_t hash, std::size_t target,
                         double budget_ms) {
  std::vector<std::size_t> peers;
  {
    util::MutexLock lock(mutex_);
    if (config_.replication_factor < 2 || ring_.num_nodes() == 0) return false;
    for (std::uint32_t r : ring_.replicas(hash, config_.replication_factor)) {
      const auto i = static_cast<std::size_t>(r);
      if (i != target && state_[i] == NodeState::live) peers.push_back(i);
    }
  }
  // The probe phase burns the request's deadline budget: once it expires,
  // stop probing and let the target build — a late peer hit helps nobody.
  util::Deadline deadline(budget_ms);
  util::Backoff backoff(kPeerBackoff, hash);
  for (std::size_t p : peers) {
    for (std::size_t attempt = 0; attempt <= kPeerRetries; ++attempt) {
      if (deadline.expired()) return false;
      peer_probe_total_->inc();
      try {
        util::fault::inject("peer.peek", static_cast<int>(p));
        if (auto hit = nodes_[p]->peek_ram(key)) {
          // The resident object itself moves across nodes — bit-identity
          // with a local build is by construction, and the target now
          // fast-hits.
          nodes_[target]->promote_ram(key, hit);
          peer_fetch_total_->inc();
          note_success(p);
          return true;
        }
        note_success(p);
        break;  // clean miss: nothing to retry, try the next peer
      } catch (const std::exception&) {
        note_failure(p);
        if (attempt < kPeerRetries && !deadline.expired()) backoff.sleep();
      }
    }
  }
  return false;
}

std::vector<std::size_t> Cluster::candidates_for(const Route& r) const {
  std::vector<std::size_t> out;
  util::MutexLock lock(mutex_);
  out.push_back(r.target);
  if (ring_.num_nodes() == 0) return out;
  // At least one fallback even at replication 1: a thrown submit should
  // fail over, not fail the request, as long as anyone is live.
  const std::size_t want = std::max<std::size_t>(config_.replication_factor, 2);
  for (std::uint32_t rep : ring_.replicas(r.hash, want)) {
    const auto i = static_cast<std::size_t>(rep);
    if (i != r.target && state_[i] == NodeState::live) out.push_back(i);
  }
  return out;
}

template <typename Send>
std::invoke_result_t<Send&, GranuleService&, const ProductRequest&> Cluster::dispatch(
    const ProductRequest& request, Send send) {
  const Route r = route(request);
  util::Deadline deadline(request.deadline_ms);
  std::exception_ptr last;
  for (std::size_t node : candidates_for(r)) {
    try {
      util::fault::inject("node.submit", static_cast<int>(node));
      if (!nodes_[node]->peek_ram(r.key))
        peer_fetch(r.key, r.hash, node, deadline.limited() ? deadline.remaining_ms() : 0.0);
      // Remaining-budget propagation: the node's dequeue-time deadline check
      // sees what is left after routing, probing and any failover here.
      ProductRequest attempt = request;
      if (deadline.limited()) attempt.deadline_ms = std::max(0.01, deadline.remaining_ms());
      auto out = send(*nodes_[node], attempt);
      note_success(node);
      return out;
    } catch (const std::exception&) {
      last = std::current_exception();
      note_failure(node);
    }
  }
  std::rethrow_exception(last);  // candidates_for never returns empty
}

ProductFuture Cluster::submit(const ProductRequest& request) {
  return dispatch(request, [](GranuleService& node, const ProductRequest& attempt) {
    return node.submit(attempt);
  });
}

std::optional<ProductFuture> Cluster::try_submit(const ProductRequest& request,
                                                 std::optional<Priority>* shed_class) {
  // std::nullopt is a shed — a policy answer from a healthy node, not a
  // failure — so it returns as-is instead of failing over (a full queue
  // elsewhere would shed too; retrying is the client's call).
  return dispatch(request, [shed_class](GranuleService& node, const ProductRequest& attempt) {
    return node.try_submit(attempt, shed_class);
  });
}

std::size_t Cluster::warm(const std::vector<ProductRequest>& requests, mapred::Engine& engine) {
  // Owner-routed, shallow-kind prefetch. Deliberately bypasses route(): warm
  // traffic must not feed the popularity ledger (it would mark keys hot
  // before any real client asked) and never replica-spreads.
  std::vector<std::vector<ProductRequest>> groups(nodes_.size());
  for (ProductRequest req : requests) {
    req.kind = pipeline::ProductKind::classification;
    const ProductKey key = key_for(req);
    std::size_t target;
    {
      util::MutexLock lock(mutex_);
      if (shut_down_) throw std::runtime_error("Cluster: shut down");
      if (ring_.num_nodes() == 0) throw std::runtime_error("Cluster: no live nodes");
      target = ring_.owner(ring_hash(key));
    }
    groups[target].push_back(std::move(req));
  }
  std::size_t built = 0;
  for (std::size_t i = 0; i < groups.size(); ++i)
    if (!groups[i].empty()) built += nodes_[i]->warm(groups[i], engine);
  return built;
}

void Cluster::kill_node(std::size_t i) {
  {
    util::MutexLock lock(mutex_);
    if (i >= nodes_.size() || state_[i] == NodeState::killed) return;
    state_[i] = NodeState::killed;  // a quarantined node can still be killed
    consecutive_failures_[i] = 0;
    ring_.remove(static_cast<std::uint32_t>(i));  // no-op if quarantine removed it
    sync_gauges_locked();
  }
  // Drain outside the router lock: nothing new routes here anymore, and a
  // drain can take as long as the slowest queued build.
  nodes_[i]->shutdown();
}

void Cluster::sync_gauges_locked() {
  live_nodes_gauge_->set(
      static_cast<double>(std::count(state_.begin(), state_.end(), NodeState::live)));
  quarantined_gauge_->set(
      static_cast<double>(std::count(state_.begin(), state_.end(), NodeState::quarantined)));
}

void Cluster::quarantine_node(std::size_t i) {
  std::vector<ProductKey> hot;
  {
    util::MutexLock lock(mutex_);
    if (i >= nodes_.size() || state_[i] != NodeState::live) return;  // already out
    state_[i] = NodeState::quarantined;
    consecutive_failures_[i] = 0;
    ring_.remove(static_cast<std::uint32_t>(i));
    quarantine_total_->inc();
    sync_gauges_locked();
    // Healing candidates: the hot slice of the popularity ledger (bounded).
    // Cold keys re-route and recover from the shared disk tier on their
    // own; the hot head is what would otherwise storm the new owners with
    // rebuilds.
    for (const auto& [key, count] : popularity_) {
      if (count < config_.hot_key_threshold) continue;
      hot.push_back(key);
      if (hot.size() >= kRereplicateLimit) break;
    }
  }
  // Re-replicate outside the lock: the quarantined node is not drained —
  // its RAM tier is intact and peek_ram stays safe — so every hot key it
  // holds is copied to the key's new owner before traffic misses there.
  for (const ProductKey& key : hot) {
    const std::uint64_t h = routing_hash(key);
    auto hit = nodes_[i]->peek_ram(key);
    if (!hit) continue;
    std::size_t new_owner;
    {
      util::MutexLock lock(mutex_);
      if (ring_.num_nodes() == 0) break;  // fleet dark: nowhere to heal to
      new_owner = ring_.owner(h);
    }
    nodes_[new_owner]->promote_ram(key, std::move(hit));
    rereplicated_total_->inc();
  }
}

void Cluster::revive_node(std::size_t i) {
  util::MutexLock lock(mutex_);
  if (i >= nodes_.size() || state_[i] != NodeState::quarantined) return;
  state_[i] = NodeState::live;
  consecutive_failures_[i] = 0;
  ring_.add(static_cast<std::uint32_t>(i));
  revive_total_->inc();
  sync_gauges_locked();
}

bool Cluster::is_quarantined(std::size_t i) const {
  util::MutexLock lock(mutex_);
  return i < state_.size() && state_[i] == NodeState::quarantined;
}

std::size_t Cluster::probe_health() {
  // Sentinel key: peek_ram on a key nobody caches is a cheap liveness
  // round-trip through the node's cache shard locks.
  ProductKey sentinel;
  sentinel.granule_id = "__health_probe__";
  std::size_t healthy = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!is_live(i)) continue;  // dead and quarantined nodes are never probed
    try {
      util::fault::inject("peer.peek", static_cast<int>(i));
      (void)nodes_[i]->peek_ram(sentinel);
      note_success(i);
      ++healthy;
    } catch (const std::exception&) {
      note_failure(i);
    }
  }
  return healthy;
}

void Cluster::note_failure(std::size_t i) {
  bool quarantine = false;
  {
    util::MutexLock lock(mutex_);
    node_failure_total_->inc();
    if (i >= state_.size() || state_[i] != NodeState::live) return;
    ++consecutive_failures_[i];
    quarantine =
        config_.quarantine_after > 0 && consecutive_failures_[i] >= config_.quarantine_after;
  }
  if (quarantine) quarantine_node(i);
}

void Cluster::note_success(std::size_t i) {
  util::MutexLock lock(mutex_);
  if (i < consecutive_failures_.size()) consecutive_failures_[i] = 0;
}

double Cluster::imbalance() const {
  std::vector<NodeState> state;
  {
    util::MutexLock lock(mutex_);
    state = state_;
  }
  double max = 0.0, sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state[i] != NodeState::live) continue;
    const double r = static_cast<double>(routed_total_[i]->value());
    max = std::max(max, r);
    sum += r;
    ++n;
  }
  if (n == 0 || sum == 0.0) return 0.0;
  return max / (sum / static_cast<double>(n));
}

obs::RegistrySnapshot Cluster::obs_snapshot() const {
  obs::RegistrySnapshot merged = registry_.snapshot();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    obs::RegistrySnapshot node_snap = nodes_[i]->obs_snapshot();
    const std::pair<std::string, std::string> label{"node", "node" + std::to_string(i)};
    for (obs::MetricPoint& p : node_snap.points) {
      // Keep each point's label set sorted (the registry invariant the
      // exporters rely on) while tagging it with the node identity.
      p.labels.insert(std::lower_bound(p.labels.begin(), p.labels.end(), label), label);
      merged.points.push_back(std::move(p));
    }
  }
  // Re-sort globally so to_prometheus sees each family contiguous and emits
  // HELP/TYPE exactly once per family.
  std::sort(merged.points.begin(), merged.points.end(),
            [](const obs::MetricPoint& a, const obs::MetricPoint& b) {
              return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
            });
  return merged;
}

void Cluster::wait_disk_writebacks() {
  for (auto& node : nodes_) node->wait_disk_writebacks();
}

void Cluster::shutdown() {
  {
    util::MutexLock lock(mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  for (auto& node : nodes_) node->shutdown();
}

}  // namespace is2::serve
