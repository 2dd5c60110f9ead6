#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

namespace {

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  if (enabled_) spans_.reserve(1 << 14);
}

int Tracer::open(const char* name, int parent, std::int64_t item) {
  if (!enabled_) return -1;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, parent, item, t, -1.0});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  if (id < 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).t1 = t;
}

int Tracer::add(const char* name, int parent, double t0, double t1, std::int64_t item) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, parent, item, t0, t1});
  return static_cast<int>(spans_.size() - 1);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

Tracer::Breakdown Tracer::breakdown(double t0, double t1) const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans = spans_;
  }
  Breakdown out;
  out.wall_s = t1 - t0;
  for (const char* layer : kLayers) {
    out.self_s[layer] = 0.0;
    out.share_s[layer] = 0.0;
  }
  // Clip every span to the window; spans still open count as ending at t1.
  const std::size_t n = spans.size();
  for (auto& s : spans) {
    if (s.t1 < 0.0) s.t1 = t1;
    s.t0 = std::clamp(s.t0, t0, t1);
    s.t1 = std::clamp(s.t1, s.t0, t1);
  }

  // Self time: duration minus the union of the children's intervals.
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i)
    if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::pair<double, double>> iv;
    for (const std::size_t c : children[i])
      iv.emplace_back(std::max(spans[c].t0, spans[i].t0), std::min(spans[c].t1, spans[i].t1));
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    out.self_s[layer_of(spans[i].name)] += (spans[i].t1 - spans[i].t0) - covered;
  }

  // Wall share: sweep the open/close events; between two events split the
  // interval evenly among open spans with no open child (the leaves).
  struct Event {
    double t;
    int delta;  // +1 open, -1 close
    std::size_t span;
  };
  std::vector<Event> events;
  events.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].t1 <= spans[i].t0) continue;
    events.push_back({spans[i].t0, +1, i});
    events.push_back({spans[i].t1, -1, i});
  }
  // Ties: closes before opens; parents (lower ids) open before and close
  // after their children.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.delta != b.delta) return a.delta < b.delta;
    return a.delta > 0 ? a.span < b.span : a.span > b.span;
  });
  std::vector<std::string> layer(n);
  for (std::size_t i = 0; i < n; ++i) layer[i] = layer_of(spans[i].name);
  std::vector<int> open_children(n, 0);
  std::vector<char> is_open(n, 0);
  // Whether a span was counted as an open child of its parent when it
  // opened; only those are uncounted when they close.
  std::vector<char> linked(n, 0);
  std::map<std::string, long> leaves_by_layer;
  long leaves = 0;
  auto set_leaf = [&](std::size_t i, int delta) {
    leaves_by_layer[layer[i]] += delta;
    leaves += delta;
  };
  double t = t0;
  for (const auto& e : events) {
    const double dt = e.t - t;
    if (dt > 0.0) {
      if (leaves == 0) {
        out.remainder_s += dt;
      } else {
        for (const auto& [name, count] : leaves_by_layer)
          if (count > 0)
            out.share_s[name] += dt * static_cast<double>(count) / static_cast<double>(leaves);
      }
      t = e.t;
    }
    const std::size_t i = e.span;
    const int p = spans[i].parent;
    const auto up = static_cast<std::size_t>(p);
    const bool parent_open = p >= 0 && is_open[up];
    if (e.delta > 0) {
      is_open[i] = 1;
      set_leaf(i, +1);
      if (parent_open) {
        linked[i] = 1;
        if (open_children[up]++ == 0) set_leaf(up, -1);
      }
    } else {
      if (open_children[i] == 0) set_leaf(i, -1);
      is_open[i] = 0;
      if (linked[i] && parent_open) {
        if (--open_children[up] == 0) set_leaf(up, +1);
      }
    }
  }
  if (t1 > t) out.remainder_s += t1 - t;
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  std::fprintf(f, "id,parent,name,item,start_s,end_s\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%d,%s,%lld,%.9f,%.9f\n", i, s.parent, s.name,
                 static_cast<long long>(s.item), s.t0, s.t1);
  }
  std::fclose(f);
}

}  // namespace perfbench
