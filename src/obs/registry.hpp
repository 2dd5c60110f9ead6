// `obs::Registry` — the process-facing catalogue of named, labeled
// instruments behind every `is2` metric, and the one place exporters read.
//
// Naming scheme (enforced here, documented in docs/observability.md):
//  * metric names match the Prometheus charset [a-zA-Z_:][a-zA-Z0-9_:]*
//    and are namespaced `is2_<subsystem>_<noun>[_<unit>]`;
//  * Counter names must end in `_total` (the exposition-format convention
//    the CI lint checks);
//  * labels carry low-cardinality dimensions only (priority class, cache
//    tier, stage name) — never granule ids or other per-request values.
//
// Ownership / threading contract: the registry owns its instruments and
// never deletes or moves them, so the references returned by
// counter()/gauge()/histogram() stay valid for the registry's lifetime —
// register once at construction, keep the pointer, update lock-free on the
// hot path. Registration (get-or-create on (name, labels)) takes the
// registry mutex; updates never do (see instruments.hpp). snapshot() copies
// every instrument's current value under no global ordering: counters read
// relaxed, histograms under their own mutex.
//
// One store: the registry is where counts and latencies live, not a copy
// of them. Components (cache tiers, scheduler, inference backend, service)
// update their instruments at the event, and their read views (stats(),
// metrics()) are assembled from the instruments with no side effects, so a
// snapshot taken at any moment is exact and counters never go backwards.
//
// Registries are instantiable so each GranuleService / BatchScheduler /
// test owns isolated counters (the repo's tests build many services per
// process with exact-count assertions); a component handed no registry
// counts into a private one (`use_or_own`); `Registry::global()` provides
// the conventional process-wide instance for code without a natural owner.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/instruments.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace is2::obs {

/// Label set of one instrument: sorted, deduplicated key/value pairs.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType : std::uint8_t { counter = 0, gauge = 1, histogram = 2 };

const char* metric_type_name(MetricType type);

/// One instrument's identity + value at snapshot time.
struct MetricPoint {
  std::string name;
  std::string help;
  MetricType type = MetricType::counter;
  Labels labels;
  double value = 0.0;                   ///< counter / gauge
  Latency histogram;                    ///< histogram only
};

struct RegistrySnapshot {
  std::vector<MetricPoint> points;  ///< sorted by (name, labels)

  /// The point with exactly this name and (sorted) label set; nullptr when
  /// absent.
  const MetricPoint* find(const std::string& name, const Labels& labels = {}) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. Throws std::invalid_argument on a malformed name (bad
  /// charset, counter without `_total`), or when the same (name, labels)
  /// was registered as a different type. `help` is kept from the first
  /// registration.
  Counter& counter(const std::string& name, Labels labels = {}, const std::string& help = "");
  Gauge& gauge(const std::string& name, Labels labels = {}, const std::string& help = "");
  HistogramMetric& histogram(const std::string& name, Labels labels = {},
                             const std::string& help = "");

  /// Copy every instrument's current value, sorted by (name, labels).
  RegistrySnapshot snapshot() const;

  /// Conventional process-wide instance (never destroyed).
  static Registry& global();

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricType type;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  Entry& get_or_create(const std::string& name, Labels labels, const std::string& help,
                       MetricType type);

  mutable util::Mutex mutex_;
  /// Keyed by (name, labels): map keeps snapshot order deterministic and
  /// node addresses stable across inserts.
  std::map<std::pair<std::string, Labels>, Entry> entries_ GUARDED_BY(mutex_);
};

/// The registry a component was given, or else a fresh private one kept
/// alive in `owned`: a component built without a registry still counts,
/// and its read views work the same either way.
Registry& use_or_own(Registry* given, std::unique_ptr<Registry>& owned);

}  // namespace is2::obs
