// Serve stage: open-loop traffic against one `serve::GranuleService`.
//
// One generator thread (the caller) sends requests at Poisson arrival
// instants with Zipf key popularity over campaign granules x strong beams x
// sea-surface methods x product kinds, and harvests completions between
// sends. Each request is timed from its *scheduled* send instant to the
// moment its future is seen ready, so a generator stall is charged to the
// requests it delays; how late the generator ran is reported separately.
// Threads: the generator, the service's 2 workers and its disk write-back
// thread — 4 in all.
//
// The service's RAM tier holds a fraction of the working set and its disk
// tier a larger one, so the fixed-rate run mixes RAM hits, disk hits,
// resumed and cold builds, write-backs and evictions.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include "atl03/surface_model.hpp"
#include "freeboard/freeboard.hpp"
#include "pipeline/classifier.hpp"
#include "pipeline/product_builder.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {

namespace serve = is2::serve;
namespace pipeline = is2::pipeline;

namespace {

constexpr std::size_t kWorkers = 2;
/// The RAM tier holds the hottest ~15% of the working set (~110 MiB over
/// all keys) and the disk tier ~30%: most requests hit RAM, and cold
/// builds stay a few percent of the traffic.
constexpr std::size_t kRamBytes = 20u << 20;
constexpr std::size_t kDiskBytes = 32u << 20;
constexpr double kZipfS = 1.1;
/// Offered rate of the fixed-rate traffic, and the length of the slice of
/// it each step sends.
constexpr double kRateQps = 400.0;
constexpr double kSliceS = 1.2;
/// Set-up warms the caches: a bulk build of the kWarmKeys most popular keys
/// (`GranuleService::warm`), then kWarmupS of traffic to order the LRU tiers.
constexpr std::size_t kWarmKeys = 32;
constexpr double kWarmupS = 0.5;
/// Latency limit on p99 for the max-rate search, and each request's budget
/// (a request still queued after it is dropped and counts as failed).
constexpr double kSloMs = 250.0;
constexpr double kDeadlineMs = 1000.0;
/// Fixed ladder of offered rates: kLadderBase * kLadderStep^i, i < kLadderRungs
/// (from the fixed rate up ~10x), searched by bisection. A probe sends
/// kProbeRequests requests, and for at least kProbeS.
constexpr double kLadderBase = kRateQps;
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 60;
constexpr double kProbeS = 0.5;
constexpr double kProbeRequests = 2000.0;
/// Direct rebuilds compared bit for bit with served products, sampled from
/// the first kKeptProducts distinct products served.
constexpr std::size_t kCheckedProducts = 8;
constexpr std::size_t kKeptProducts = 32;

const pipeline::ProductKind kKinds[] = {pipeline::ProductKind::classification,
                                        pipeline::ProductKind::seasurface,
                                        pipeline::ProductKind::freeboard};
const is2::seasurface::Method kMethods[] = {
    is2::seasurface::Method::NasaEquation, is2::seasurface::Method::MinElevation,
    is2::seasurface::Method::AverageElevation, is2::seasurface::Method::NearestMinElevation};

class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) cdf_[k] = (sum += 1.0 / std::pow(double(k + 1), s));
    for (auto& c : cdf_) c /= sum;
  }
  std::size_t operator()(is2::util::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Outcome of one open-loop run.
struct LoopResult {
  std::uint64_t offered = 0, served = 0, shed = 0, deadline = 0, errors = 0;
  std::vector<double> latency_ms;                 ///< served requests
  std::array<std::vector<double>, 3> by_source;   ///< index = ServedFrom
  std::vector<double> queue_wait_ms;              ///< scheduled jobs
  std::vector<double> late_ms;                    ///< send instant - scheduled instant
  std::size_t backlog_end = 0;                    ///< unfinished at the end of sending
  double drain_ms = 0.0;                          ///< end of sending -> last completion
  /// Served products for the bit-identity check: the first kKeptProducts
  /// distinct keys seen (keeping every one would hold the working set).
  std::map<std::size_t, std::shared_ptr<const serve::GranuleProduct>> products;

  double ok_frac() const { return offered ? double(served) / double(offered) : 0.0; }
  double p99() const { return pct(latency_ms, 99.0); }

  /// Fold another run's outcome into this one.
  void merge(const LoopResult& o) {
    offered += o.offered;
    served += o.served;
    shed += o.shed;
    deadline += o.deadline;
    errors += o.errors;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(latency_ms, o.latency_ms);
    for (std::size_t i = 0; i < by_source.size(); ++i) append(by_source[i], o.by_source[i]);
    append(queue_wait_ms, o.queue_wait_ms);
    append(late_ms, o.late_ms);
    for (const auto& kv : o.products)
      if (products.size() < kKeptProducts) products.insert(kv);
  }
};

LoopResult open_loop(serve::GranuleService& service,
                     const std::vector<serve::ProductRequest>& universe, double rate,
                     double duration_s, std::uint64_t seed, Tracer& tracer, int parent) {
  struct Pending {
    serve::ProductFuture future;
    double scheduled;
    std::size_t index;
    std::uint64_t id;
  };
  const Zipf zipf(universe.size(), kZipfS);
  is2::util::Rng rng(seed);
  LoopResult r;
  std::vector<Pending> pending;

  auto finish = [&](Pending& p, double t_ready) {
    tracer.add("serve.request", parent, p.scheduled, t_ready, static_cast<std::int64_t>(p.id));
    try {
      const serve::ProductResponse resp = p.future.get();
      const double ms = (t_ready - p.scheduled) * 1e3;
      ++r.served;
      r.latency_ms.push_back(ms);
      r.by_source[static_cast<std::size_t>(resp.source)].push_back(ms);
      if (resp.source != serve::ServedFrom::ram || resp.queue_wait_ms > 0.0)
        r.queue_wait_ms.push_back(resp.queue_wait_ms);
      if (r.products.size() < kKeptProducts) r.products.emplace(p.index, resp.product);
    } catch (const serve::ShedError&) {
      ++r.shed;
    } catch (const serve::DeadlineError&) {
      ++r.deadline;
    } catch (const std::exception&) {
      ++r.errors;
    }
  };
  // Harvest every pending future that is ready now; true if any was.
  auto harvest = [&] {
    bool any = false;
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        finish(pending[i], now_s());
        pending[i] = std::move(pending.back());
        pending.pop_back();
        any = true;
      } else {
        ++i;
      }
    }
    return any;
  };

  const double start = now_s() + 1e-3;
  const double end = start + duration_s;
  double next = start;
  for (std::uint64_t id = 0; next < end; ++id) {
    while (now_s() < next) {
      if (!harvest() && next - now_s() > 2e-4)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    const double sent = now_s();
    r.late_ms.push_back((sent - next) * 1e3);
    const std::size_t index = zipf(rng);
    serve::ProductRequest req = universe[index];
    req.deadline_ms = kDeadlineMs;
    ++r.offered;
    std::optional<serve::ProductFuture> f;
    {
      Scope span(tracer, "serve.try_submit", parent, static_cast<std::int64_t>(id));
      f = service.try_submit(req);
    }
    if (!f) {
      ++r.shed;
    } else if (f->wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      Pending p{*f, next, index, id};
      finish(p, now_s());
    } else {
      pending.push_back({*f, next, index, id});
    }
    next += rng.exponential(rate);
  }
  r.backlog_end = pending.size();
  const double stop = std::max(end, now_s());
  while (!pending.empty()) {
    if (!harvest()) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  r.drain_ms = std::max(0.0, now_s() - stop) * 1e3;
  return r;
}

/// A rate meets the objective when p99 is within the latency limit, at
/// least 99% of requests are served, and the backlog does not grow: what is
/// left when sending stops drains within the latency limit.
bool passes_slo(const LoopResult& r) {
  return r.p99() <= kSloMs && r.ok_frac() >= 0.99 && r.drain_ms <= kSloMs;
}

/// Bisection for the highest rung of the fixed ladder that meets the
/// objective, assuming a rate that fails fails at every higher rung too.
class Ladder {
 public:
  bool done() const { return hi_ - lo_ <= 1; }
  /// Probe the next rung. A rung that fails is probed once more and judged
  /// on both probes' requests together (and the later probe's drain), so
  /// one burst of cold builds does not decide the whole search.
  void probe(serve::GranuleService& service, const std::vector<serve::ProductRequest>& universe,
             std::uint64_t seed) {
    const int mid = (lo_ + hi_) / 2;
    const double rate = rung(mid);
    const double length_s = std::max(kProbeS, kProbeRequests / rate);
    LoopResult r = open_loop(service, universe, rate, length_s, seed + 101 + mid, off_, -1);
    service.wait_disk_writebacks();
    bool ok = passes_slo(r);
    if (!ok) {
      const LoopResult again =
          open_loop(service, universe, rate, length_s, seed + 211 + mid, off_, -1);
      service.wait_disk_writebacks();
      r.merge(again);
      r.backlog_end = again.backlog_end;
      r.drain_ms = again.drain_ms;
      ok = passes_slo(r);
    }
    std::printf("serve: ladder rung %2d %7.1f qps: p99 %8.2f ms ok %.4f backlog %zu drain %.1f ms"
                " -> %s\n", mid, rate, r.p99(), r.ok_frac(), r.backlog_end, r.drain_ms,
                ok ? "pass" : "fail");
    (ok ? lo_ : hi_) = mid;
  }
  /// The highest passing rate (0 when even the lowest rung fails).
  double result() const { return lo_ < 0 ? 0.0 : rung(lo_); }

 private:
  static double rung(int i) { return kLadderBase * std::pow(kLadderStep, i); }

  int lo_ = -1;           ///< highest rung known to pass (-1: none)
  int hi_ = kLadderRungs; ///< lowest rung known to fail (kLadderRungs: none)
  Tracer off_{false};
};

/// Pair index of a granule id.
std::size_t pair_of(const CampaignInputs& in, const std::string& granule_id) {
  const auto& pairs = in.campaign->pairs();
  for (std::size_t k = 0; k < pairs.size(); ++k)
    if (pairs[k].granule_id == granule_id) return k;
  throw std::runtime_error("unknown granule " + granule_id);
}

/// `freeboard::freeboard_rms_vs_truth` of served freeboard products against
/// the simulator's truth (`Campaign::surface(k)`), over a fixed set: the
/// NASA-equation freeboard product of every (granule, strong beam), served
/// by the service after the timed traffic.
double freeboard_rms(const Setup& setup) {
  const CampaignInputs& in = setup.campaign;
  serve::GranuleService& service = *setup.service;
  std::vector<serve::ProductFuture> futures;
  for (const auto& [granule, beam] : service.index().entries()) {
    serve::ProductRequest req;
    req.granule_id = granule;
    req.beam = beam;
    futures.push_back(service.submit(req));
  }
  is2::freeboard::FreeboardProduct merged;
  std::vector<double> truth;
  std::map<std::size_t, is2::atl03::SurfaceModel> surfaces;
  for (auto& f : futures) {
    const serve::ProductResponse resp = f.get();
    const std::size_t k = pair_of(in, resp.product->granule_id);
    auto it = surfaces.find(k);
    if (it == surfaces.end()) it = surfaces.emplace(k, in.campaign->surface(k)).first;
    for (const auto& p : resp.product->freeboard.points) {
      merged.points.push_back(p);
      truth.push_back(it->second.sample(p.s).freeboard);
    }
  }
  service.wait_disk_writebacks();
  return is2::freeboard::freeboard_rms_vs_truth(merged, truth);
}

/// Rebuild served products directly with `pipeline::ProductBuilder` from the
/// shards and compare the serialized bytes. Returns (checked, matched);
/// stage times of the direct builds go to `stage_ms`.
std::pair<std::size_t, std::size_t> check_products(
    Setup& setup, const LoopResult& r, std::size_t count,
    std::array<std::vector<double>, pipeline::kNumStages>& stage_ms, Tracer& tracer, int parent) {
  const CampaignInputs& in = setup.campaign;
  const pipeline::ProductBuilder builder(in.config, in.campaign->corrections());
  pipeline::NnBackend backend(setup.serving_model, setup.serving_scaler,
                              in.config.sequence_window);
  const serve::ShardIndex& index = setup.service->index();
  // Spread the sample over the served set: every k-th product.
  const std::size_t stride = std::max<std::size_t>(1, r.products.size() / count);
  std::size_t checked = 0, matched = 0, pos = 0;
  for (const auto& [u, served] : r.products) {
    if (pos++ % stride != 0 || checked == count) continue;
    const serve::ProductRequest& req = setup.universe[u];
    Scope span(tracer, "pipeline.direct_build", parent, static_cast<std::int64_t>(u));
    const double t0 = now_s();
    const auto merged = serve::ShardIndex::load_merged(*index.find(req.granule_id, req.beam));
    auto art = pipeline::Artifacts::from_beam(merged, merged.beams.at(0));
    pipeline::StageTrace trace;
    builder.build(art, req.kind, &backend, req.method, &trace);
    add_stage_spans(tracer, span.id(), t0, trace, static_cast<std::int64_t>(u));
    for (std::size_t s = 0; s < pipeline::kNumStages; ++s)
      if (trace.ran[s]) stage_ms[s].push_back(trace.ms[s]);
    serve::GranuleProduct direct;
    direct.granule_id = req.granule_id;
    direct.beam = req.beam;
    direct.kind = req.kind;
    direct.segments = std::move(art.segments);
    direct.classes = std::move(art.classes);
    if (req.kind >= pipeline::ProductKind::seasurface)
      direct.sea_surface = std::move(art.sea_surface);
    if (req.kind >= pipeline::ProductKind::freeboard)
      direct.freeboard = std::move(art.freeboard);
    const serve::ProductKey key = setup.service->key_for(req);
    ++checked;
    if (serve::DiskCache::serialize(key, direct) == serve::DiskCache::serialize(key, *served))
      ++matched;
  }
  return {checked, matched};
}

}  // namespace

void start_service(Setup& setup, const Args& args, Tracer& tracer, int parent) {
  const CampaignInputs& in = setup.campaign;
  Scope span(tracer, "serve.start", parent);
  serve::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.cache_bytes = kRamBytes;
  cfg.disk_cache_dir = args.workdir + "/products";
  cfg.disk_cache_bytes = kDiskBytes;
  std::filesystem::remove_all(cfg.disk_cache_dir);
  setup.service.reset();
  setup.service = std::make_unique<serve::GranuleService>(
      cfg, in.config, in.campaign->corrections(), serve::ShardIndex::build(in.shards.files),
      setup.serving_model, setup.serving_scaler);

  // The request universe in popularity-rank order.
  setup.universe.clear();
  for (const auto& [granule, beam] : setup.service->index().entries())
    for (const auto method : kMethods)
      for (const auto kind : kKinds) {
        serve::ProductRequest req;
        req.granule_id = granule;
        req.beam = beam;
        req.method = method;
        req.kind = kind;
        req.priority = serve::Priority::interactive;
        setup.universe.push_back(req);
      }
  // Key popularity is part of the dataset, not of the seed: the same fixed
  // permutation every run, so the seed moves the request stream and not
  // which keys are hot.
  is2::util::Rng rng(0x2195EEull);
  rng.shuffle(setup.universe);

  // Warm the caches toward their steady state before anything is timed.
  {
    const std::vector<serve::ProductRequest> top(setup.universe.begin(),
                                                 setup.universe.begin() + kWarmKeys);
    is2::mapred::Engine engine({1, nproc()});
    setup.service->warm(top, engine);
  }
  open_loop(*setup.service, setup.universe, kRateQps, kWarmupS, args.seed, tracer, span.id());
  setup.service->wait_disk_writebacks();
}

namespace {

class ServeStage : public Stage {
 public:
  ServeStage(Setup& setup, const Args& args)
      : setup_(setup), seed_(is2::util::hash64(args.seed + 7)) {}

  void step() override {
    serve::GranuleService& service = *setup_.service;
    Tracer off(false);
    fixed_.merge(open_loop(service, setup_.universe, kRateQps, kSliceS, seed_ + steps_, off, -1));
    // Leave no write-back running into the next stage's timing.
    service.wait_disk_writebacks();
    ++steps_;
  }

  void finish(Report& report) override {
    serve::GranuleService& service = *setup_.service;
    std::array<std::vector<double>, pipeline::kNumStages> stage_ms;
    Tracer off(false);
    const auto [checked, matched] =
        check_products(setup_, fixed_, kCheckedProducts, stage_ms, off, -1);
    service.wait_disk_writebacks();
    const LoopResult& r = fixed_;
    std::printf("serve: %.0f qps, %zu slices: %llu offered, %llu served, p50 %.4f ms, p99 %.3f ms "
                "(%zu samples); ram/disk/build %zu/%zu/%zu\n",
                kRateQps, steps_, (unsigned long long)r.offered, (unsigned long long)r.served,
                pct(r.latency_ms, 50.0), r.p99(), r.latency_ms.size(), r.by_source[1].size(),
                r.by_source[2].size(), r.by_source[0].size());
    report.check(checked > 0 && matched == checked,
                 "serve: " + std::to_string(checked) +
                     " sampled served products are bit-identical to direct builds");
    report.attempted += r.offered;
    report.failed += r.offered - r.served;
    report.add("serve_ok_frac", r.ok_frac(), "ratio");
    report.add("freeboard_rms_m", freeboard_rms(setup_), "m");
  }

 private:
  Setup& setup_;
  const std::uint64_t seed_;
  std::size_t steps_ = 0;
  LoopResult fixed_;
};

}  // namespace

std::unique_ptr<Stage> serve_stage(Setup& setup, const Args& args) {
  return std::make_unique<ServeStage>(setup, args);
}

void trace_serve(Setup& setup, const Args& args, Tracer& tracer, Report& report) {
  serve::GranuleService& service = *setup.service;
  const double fixed_s = 2 * kSliceS;
  const std::uint64_t seed = is2::util::hash64(args.seed + 7);
  std::array<std::vector<double>, pipeline::kNumStages> stage_ms;

  // The fixed-rate traffic untraced (for the overhead) and traced, then
  // direct builds, which give the classify and features stage times.
  // Untraced and traced slices alternate, two of each, for the overhead;
  // the layer counters are the traced slices' own.
  Tracer off(false);
  LoopResult plain, r;
  std::array<std::uint64_t, 5> counted{};
  auto counters = [&service] {
    const serve::ServiceMetrics m = service.metrics();
    return std::array<std::uint64_t, 5>{m.resumed_builds,   m.scheduler.coalesced,
                                        m.cache.evictions, m.disk.evictions,
                                        m.disk.writes};
  };
  for (int k = 0; k < 2; ++k) {
    {
      Scope ref(tracer, "bench.untraced_reference");
      plain.merge(open_loop(service, setup.universe, kRateQps, fixed_s, seed + 2 * k, off, -1));
    }
    const auto before = counters();
    {
      Scope span(tracer, "loadgen.fixed_rate");
      r.merge(open_loop(service, setup.universe, kRateQps, fixed_s, seed + 2 * k + 1, tracer,
                        span.id()));
    }
    const auto after = counters();
    for (std::size_t i = 0; i < counted.size(); ++i) counted[i] += after[i] - before[i];
  }
  service.wait_disk_writebacks();
  std::pair<std::size_t, std::size_t> checked;
  {
    Scope span(tracer, "core.check_products");
    checked = check_products(setup, r, 3 * kCheckedProducts, stage_ms, tracer, span.id());
  }
  report.check(checked.first > 0 && checked.second == checked.first,
               "serve: sampled served products are bit-identical (traced run)");
  report.attempted += r.offered + plain.offered;
  report.failed += (r.offered - r.served) + (plain.offered - plain.served);
  report.overhead["serve"] = pct(r.latency_ms, 50.0) / pct(plain.latency_ms, 50.0) - 1.0;
  // Latency of the untraced slices and the max-rate search. Between runs on
  // a shared 4-vCPU machine these swing by more than the largest allowed
  // bound (see README.md), so they are reported here and not gated as
  // end-to-end metrics.
  report.add("serve_p50_ms", pct(plain.latency_ms, 50.0), "ms");
  report.add("serve_p99_ms", plain.p99(), "ms");
  {
    // The max-rate search, untraced inside (its probes are load tests).
    Scope span(tracer, "serve.max_rate_search");
    Ladder ladder;
    while (!ladder.done()) ladder.probe(service, setup.universe, seed);
    report.add("serve_max_qps_at_slo", ladder.result(), "1/s");
  }

  const double served = std::max<double>(1.0, double(r.served));
  report.add("serve.ram_frac", double(r.by_source[1].size()) / served, "ratio");
  report.add("serve.disk_frac", double(r.by_source[2].size()) / served, "ratio");
  report.add("serve.build_frac", double(r.by_source[0].size()) / served, "ratio");
  report.add("serve.ram_ms_p50", pct(r.by_source[1], 50.0), "ms");
  report.add("serve.disk_ms_p50", pct(r.by_source[2], 50.0), "ms");
  report.add("serve.build_ms_p50", pct(r.by_source[0], 50.0), "ms");
  report.add("serve.build_ms_p99", pct(r.by_source[0], 99.0), "ms");
  report.add("serve.queue_wait_ms_p99", pct(r.queue_wait_ms, 99.0), "ms");
  report.add("serve.resumed_builds", double(counted[0]), "count");
  report.add("serve.coalesced", double(counted[1]), "count");
  report.add("serve.shed", double(r.shed), "count");
  report.add("serve.deadline_expired", double(r.deadline), "count");
  report.add("serve.errors", double(r.errors), "count");
  report.add("serve.evictions", double(counted[2] + counted[3]), "count");
  report.add("serve.writebacks", double(counted[4]), "count");
  report.add("serve.requests", double(r.offered), "count");
  report.add("loadgen.late_ms_p99", pct(r.late_ms, 99.0), "ms");
  report.add("pipeline.features_ms_p50", median(stage_ms[3]), "ms");
  report.add("pipeline.classify_ms_p50", median(stage_ms[4]), "ms");
}

}  // namespace perfbench
