// Span recorder for the traced run.
//
// The benchmark records a span around every call it makes into a library
// layer: name ("<layer>.<call>"), start, end, parent span and the partition
// or request the work belongs to. Spans are kept in memory and written out
// when the run ends. From them the traced run reports, per layer:
//
//  * self time — a span's duration minus the part of its interval that its
//    child spans cover, summed over the layer's spans (work that runs on
//    several threads at once can sum past the wall time);
//  * wall share — every instant of the run is split evenly among the spans
//    that are open and have no open child, so the shares of all layers
//    plus the remainder (instants with no open span) add up to the wall
//    time exactly.
//
// A disabled Tracer records nothing; the untraced run uses one so the code
// path is the same in both runs. Thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Open a span now; returns its id (-1 when disabled). `parent` is -1 for
  /// a root span. `name` must outlive the tracer (string literals).
  int open(const char* name, int parent = -1, std::int64_t item = -1);
  void close(int id);
  /// Record a span whose interval was measured elsewhere (steady-clock
  /// seconds, as now_s()).
  int add(const char* name, int parent, double t0, double t1, std::int64_t item = -1);

  std::size_t size() const;

  struct Breakdown {
    double wall_s = 0.0;
    double remainder_s = 0.0;                ///< no span open
    std::map<std::string, double> self_s;    ///< per layer
    std::map<std::string, double> share_s;   ///< per layer; + remainder = wall
  };
  /// Per-layer self time and wall share over [t0, t1].
  Breakdown breakdown(double t0, double t1) const;

  /// Write every span as CSV (id,parent,name,item,start_s,end_s).
  void write_csv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t item;
    double t0, t1;
  };

  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int parent = -1, std::int64_t item = -1)
      : tracer_(tracer), id_(tracer.open(name, parent, item)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// The layers the breakdown reports, in report order: the library's
/// modules the benchmark calls into, its own load generator, and "bench",
/// the untraced reference passes the tracing overhead is measured against.
inline const char* const kLayers[] = {"core", "mapred", "h5lite", "pipeline", "label",
                                      "nn",   "dist",   "serve",  "loadgen",  "bench"};

}  // namespace perfbench
