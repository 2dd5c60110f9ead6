// NodeHandle — the abstract serving-node surface the `serve::Cluster`
// router programs against, extracted from `GranuleService` so a node can be
// a local in-process service today and a remote stub (same calls over a
// socket) later without touching the routing layer.
//
// The interface is exactly the service's client-facing API (submit /
// try_submit / warm / key_for / metrics / obs_snapshot / shutdown) plus the
// two-method *peer-fetch surface* (`peek_ram` / `promote_ram`): the cluster
// probes the replica set's RAM tiers through it on an owner-miss and copies
// a resident product across nodes instead of paying shard IO + inference.
// Both are keyed by the exact `ProductKey`, carry no service-side policy,
// and move only an immutable `shared_ptr<const GranuleProduct>` — the
// shape that serializes naturally once nodes live in other processes.
//
// `ServiceMetrics` (and its per-class slice) live here rather than in
// service.hpp because they are part of the node surface: the cluster
// aggregates them per node and the benches read them through NodeHandle.
// They are read-only views of the node's `obs::Registry`: every count and
// latency is recorded there at the event, so metrics() and obs_snapshot()
// only read.
//
// Ownership / threading contract: every method on a NodeHandle is
// thread-safe (the router calls it from many client threads concurrently);
// shutdown() is idempotent and drains accepted work. After shutdown() the
// submit flavors return broken futures — the cluster stops routing to a
// node *before* shutting it down, so clients only see that during a race
// with a node kill.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "obs/instruments.hpp"
#include "obs/registry.hpp"
#include "pipeline/stage.hpp"
#include "serve/disk_cache.hpp"
#include "serve/scheduler.hpp"

namespace is2::mapred {
class Engine;
}

namespace is2::serve {

/// Per-priority-class slice of the service metrics: how much traffic the
/// class sent and the service latency it observed. Fast RAM hits record ~0
/// (bottom histogram bin); scheduled jobs record queue wait + execution
/// (disk load or full build) once per job at completion — coalesced waiters
/// share that job's sample, so under same-key races latency.count() can be
/// below requests.
struct ClassMetrics {
  std::uint64_t requests = 0;
  obs::Latency latency;  ///< RAM probe ~0 / queue wait + disk load / + build
};

struct ServiceMetrics {
  CacheStats cache;          ///< RAM tier
  DiskCacheStats disk;       ///< disk tier (zeroed when no disk tier; the
                             ///< fleet-wide numbers when the tier is shared)
  SchedulerStats scheduler;
  std::uint64_t requests = 0;   ///< submit + try_submit calls
  std::uint64_t fast_hits = 0;  ///< answered from RAM cache without dispatch
  std::uint64_t writeback_failures = 0;  ///< async disk writes that threw
  std::uint64_t inference_batches = 0;
  std::uint64_t inference_windows = 0;
  obs::Latency load;        ///< shard read + preprocess + resample + FPB
  obs::Latency features;    ///< baseline + feature rows + standardization
  obs::Latency inference;   ///< classify stage (batched backend inference)
  obs::Latency seasurface;  ///< local sea surface detection
  obs::Latency freeboard;   ///< freeboard computation
  obs::Latency disk_load;   ///< disk-tier hit: read + deserialize + promote
  obs::Latency total;       ///< whole build (cold only; resumed = suffix)
  /// Scheduled jobs only (the fast RAM path never queues): how long the job
  /// waited for a worker, and the full queue wait + execution. service_time
  /// minus queue_wait is pure execution — the split the benches trend.
  obs::Latency queue_wait;
  obs::Latency service_time;
  std::array<ClassMetrics, kPriorityClasses> by_class;  ///< index = Priority
  /// Per-stage distributions of the seven stage-graph stages by StageId —
  /// the `is2_serve_stage_ms{stage=<pipeline::stage_name>}` series (classify
  /// under `inference`), so features/seasurface/freeboard equal the fields
  /// above. Shard IO is serve-side and lives in `load`, not here. The
  /// benches emit these.
  std::array<obs::Latency, pipeline::kNumStages> builder{};
  std::uint64_t resumed_builds = 0;  ///< builds seeded from a shallower kind
};

/// One serving node as the cluster router sees it. Implemented by the
/// in-process `GranuleService`; a future remote node implements the same
/// calls over a transport.
class NodeHandle {
 public:
  virtual ~NodeHandle() = default;

  /// Asynchronous serve with backpressure (blocks while the node's queue is
  /// full); cache fast path resolves immediately.
  virtual ProductFuture submit(const ProductRequest& request) = 0;

  /// Load-shedding serve: never blocks; std::nullopt = shed ("retry later").
  virtual std::optional<ProductFuture> try_submit(
      const ProductRequest& request, std::optional<Priority>* shed_class = nullptr) = 0;

  /// Bulk cache warm-up on a map-reduce engine (one task per request).
  /// Returns the number of products actually built (cache misses).
  virtual std::size_t warm(const std::vector<ProductRequest>& requests,
                           mapred::Engine& engine) = 0;

  /// Cache key a request resolves to on this node. Nodes built from the
  /// same config and model produce identical keys — the property that lets
  /// the cluster route by key and fetch products across peers.
  virtual ProductKey key_for(const ProductRequest& request) const = 0;

  virtual ServiceMetrics metrics() const = 0;

  /// Snapshot of the node's registry — what an exposition endpoint
  /// serves; the cluster merges these under a per-node `node` label.
  virtual obs::RegistrySnapshot obs_snapshot() const = 0;

  // Peer-fetch surface ------------------------------------------------------

  /// Speculative RAM-tier probe by exact key: no hit/miss counters (these
  /// probes are router traffic, not client requests), LRU refreshed on hit.
  virtual std::shared_ptr<const GranuleProduct> peek_ram(const ProductKey& key) = 0;

  /// Insert a product fetched from a peer into this node's RAM tier, so the
  /// next request for `key` fast-hits here instead of re-probing the fleet.
  virtual void promote_ram(const ProductKey& key,
                           std::shared_ptr<const GranuleProduct> product) = 0;

  /// Drain accepted work; idempotent. The cluster removes a node from the
  /// ring before calling this, so no new traffic routes here.
  virtual void shutdown() = 0;
};

}  // namespace is2::serve
