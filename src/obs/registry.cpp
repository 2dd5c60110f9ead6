#include "obs/registry.hpp"

#include <algorithm>
#include <stdexcept>

namespace is2::obs {

const char* metric_type_name(MetricType type) {
  switch (type) {
    case MetricType::counter: return "counter";
    case MetricType::gauge: return "gauge";
    case MetricType::histogram: return "histogram";
  }
  return "?";
}

namespace {

bool valid_name_char(char c, bool first) {
  const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  return first ? alpha : (alpha || (c >= '0' && c <= '9'));
}

void validate_name(const std::string& name, MetricType type) {
  if (name.empty()) throw std::invalid_argument("obs::Registry: empty metric name");
  for (std::size_t i = 0; i < name.size(); ++i)
    if (!valid_name_char(name[i], i == 0))
      throw std::invalid_argument("obs::Registry: bad metric name: " + name);
  if (type == MetricType::counter &&
      (name.size() < 6 || name.compare(name.size() - 6, 6, "_total") != 0))
    throw std::invalid_argument("obs::Registry: counter name must end in _total: " + name);
}

void validate_labels(const Labels& labels) {
  for (const auto& [k, v] : labels) {
    if (k.empty()) throw std::invalid_argument("obs::Registry: empty label name");
    for (std::size_t i = 0; i < k.size(); ++i) {
      const char c = k[i];
      const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
      if (!(alpha || (i > 0 && c >= '0' && c <= '9')))
        throw std::invalid_argument("obs::Registry: bad label name: " + k);
    }
  }
}

}  // namespace

Registry::Entry& Registry::get_or_create(const std::string& name, Labels labels,
                                         const std::string& help, MetricType type) {
  validate_name(name, type);
  validate_labels(labels);
  std::sort(labels.begin(), labels.end());
  util::MutexLock lock(mutex_);
  auto [it, inserted] = entries_.try_emplace({name, std::move(labels)});
  Entry& entry = it->second;
  if (inserted) {
    entry.name = it->first.first;
    entry.help = help;
    entry.type = type;
    entry.labels = it->first.second;
    switch (type) {
      case MetricType::counter: entry.counter = std::make_unique<Counter>(); break;
      case MetricType::gauge: entry.gauge = std::make_unique<Gauge>(); break;
      case MetricType::histogram: entry.histogram = std::make_unique<HistogramMetric>(); break;
    }
  } else if (entry.type != type) {
    throw std::invalid_argument("obs::Registry: " + name + " already registered as " +
                                metric_type_name(entry.type));
  }
  return entry;
}

Counter& Registry::counter(const std::string& name, Labels labels, const std::string& help) {
  return *get_or_create(name, std::move(labels), help, MetricType::counter).counter;
}

Gauge& Registry::gauge(const std::string& name, Labels labels, const std::string& help) {
  return *get_or_create(name, std::move(labels), help, MetricType::gauge).gauge;
}

HistogramMetric& Registry::histogram(const std::string& name, Labels labels,
                                     const std::string& help) {
  return *get_or_create(name, std::move(labels), help, MetricType::histogram).histogram;
}

RegistrySnapshot Registry::snapshot() const {
  RegistrySnapshot out;
  util::MutexLock lock(mutex_);
  out.points.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricPoint p;
    p.name = entry.name;
    p.help = entry.help;
    p.type = entry.type;
    p.labels = entry.labels;
    switch (entry.type) {
      case MetricType::counter:
        p.value = static_cast<double>(entry.counter->value());
        break;
      case MetricType::gauge:
        p.value = entry.gauge->value();
        break;
      case MetricType::histogram:
        p.histogram = entry.histogram->snapshot();
        break;
    }
    out.points.push_back(std::move(p));
  }
  return out;
}

const MetricPoint* RegistrySnapshot::find(const std::string& name, const Labels& labels) const {
  for (const MetricPoint& p : points)
    if (p.name == name && p.labels == labels) return &p;
  return nullptr;
}

Registry& use_or_own(Registry* given, std::unique_ptr<Registry>& owned) {
  if (given) return *given;
  owned = std::make_unique<Registry>();
  return *owned;
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: outlives static dtors
  return *instance;
}

}  // namespace is2::obs
