// Batch stage: the Table II auto-label job and the Table V freeboard job
// (`core::run_autolabel_job`, `core::run_freeboard_job`) on a
// `mapred::Engine` with nproc task slots, and the freeboard job once more
// on 1x1 as the single-thread baseline.
//
// The jobs are opaque calls, so the traced run also replays the freeboard
// job's per-partition work through the same public calls the job makes
// (h5lite load, ProductBuilder stages, label::auto_label, the sea surface
// and freeboard tail) on the same engine, with a span around each call.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "h5lite/granule_io.hpp"
#include "label/autolabel.hpp"
#include "label/overlay.hpp"
#include "pipeline/product_builder.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {

namespace core = is2::core;
namespace pipeline = is2::pipeline;

namespace {

bool same_autolabel(const core::AutoLabelJobStats& a, const core::AutoLabelJobStats& b) {
  return a.segments == b.segments && a.labeled == b.labeled &&
         a.label_accuracy == b.label_accuracy;
}

bool same_freeboard(const core::FreeboardJobStats& a, const core::FreeboardJobStats& b) {
  if (a.points != b.points || a.mean_freeboard != b.mean_freeboard) return false;
  const auto& ha = a.distribution;
  const auto& hb = b.distribution;
  if (ha.bins() != hb.bins() || ha.total() != hb.total()) return false;
  for (std::size_t i = 0; i < ha.bins(); ++i)
    if (ha.count(i) != hb.count(i)) return false;
  return true;
}

double job_s(const is2::mapred::StageTiming& t) { return t.load_s + t.map_s + t.reduce_s; }

core::AutoLabelJobStats autolabel_job(const CampaignInputs& in, is2::mapred::Engine& engine) {
  return core::run_autolabel_job(engine, in.shards, in.rasters, in.drifts,
                                 in.campaign->corrections(), in.config);
}

core::FreeboardJobStats freeboard_job(const CampaignInputs& in, is2::mapred::Engine& engine) {
  return core::run_freeboard_job(engine, in.shards, in.rasters, in.drifts,
                                 in.campaign->corrections(), in.config);
}

/// Per-layer numbers of one replay of the freeboard job.
struct Replay {
  double wall_s = 0.0;
  double load_wall_s = 0.0, reduce_wall_s = 0.0;
  std::vector<double> load_task_s, reduce_task_s;
  std::vector<double> load_ms;
  std::uint64_t bytes = 0;
  std::array<std::vector<double>, pipeline::kNumStages> stage_ms;
  std::uint64_t photons = 0;
  double preprocess_s = 0.0;
  std::vector<double> auto_label_ms, overlay_ms;
  std::size_t points = 0;
  double fb_sum = 0.0;
};

Replay replay_freeboard_job(is2::mapred::Engine& engine, const Setup& setup, Tracer& tracer,
                            int parent) {
  const CampaignInputs& in = setup.campaign;
  const auto& config = in.config;
  const pipeline::ProductBuilder builder(config, in.campaign->corrections());
  const std::size_t n = in.shards.files.size();
  Replay r;
  r.load_task_s.resize(n);
  r.reduce_task_s.resize(n);
  r.load_ms.resize(n);
  std::vector<pipeline::StageTrace> traces(n);
  std::vector<double> al_ms(n), ov_ms(n);
  std::vector<std::size_t> points(n);
  std::vector<double> fb_sum(n);
  const double t0 = now_s();

  std::vector<is2::atl03::Granule> parts;
  {
    Scope stage(tracer, "mapred.load_stage", parent);
    const double s0 = now_s();
    parts = engine.run_stage<is2::atl03::Granule>(n, [&](std::size_t i) {
      const double a = now_s();
      Scope span(tracer, "h5lite.load_granule", stage.id(), static_cast<std::int64_t>(i));
      auto g = is2::h5::load_granule(in.shards.files[i]);
      r.load_task_s[i] = now_s() - a;
      r.load_ms[i] = r.load_task_s[i] * 1e3;
      return g;
    });
    r.load_wall_s = now_s() - s0;
  }
  {
    Scope stage(tracer, "mapred.reduce_stage", parent);
    const double s0 = now_s();
    engine.run_stage(n, [&](std::size_t i) {
      const double a = now_s();
      const std::size_t pair = in.shards.pair_of_file[i];
      const auto item = static_cast<std::int64_t>(i);
      std::vector<is2::resample::Segment> segments;
      {
        Scope span(tracer, "pipeline.run_until", stage.id(), item);
        const double b = now_s();
        auto art = pipeline::Artifacts::from_beam(parts[i], parts[i].beams.at(0));
        pipeline::StageTrace trace;
        builder.run_until(art, pipeline::StageId::fpb, &trace);
        add_stage_spans(tracer, span.id(), b, trace, item);
        traces[i] = trace;
        segments = art.take_segments();
      }
      // The same label settings run_freeboard_job uses for partition i.
      is2::label::AutoLabelConfig al = config.autolabel;
      if (al.feature_gap_m < 0.0) al.feature_gap_m = config.segmenter.window_m * 1.5;
      al.seed = config.seed ^ is2::util::hash64(i * 67 + 9);
      al.overlay.shift = in.drifts[pair];
      {
        Scope span(tracer, "label.overlay_labels", stage.id(), item);
        const double b = now_s();
        const auto labels = is2::label::overlay_labels(in.rasters[pair], segments, al.overlay);
        (void)labels;
        ov_ms[i] = (now_s() - b) * 1e3;
      }
      is2::label::LabeledBeam lb;
      {
        Scope span(tracer, "label.auto_label", stage.id(), item);
        const double b = now_s();
        lb = is2::label::auto_label(in.rasters[pair], std::move(segments), al);
        al_ms[i] = (now_s() - b) * 1e3;
      }
      {
        Scope span(tracer, "pipeline.build", stage.id(), item);
        const double b = now_s();
        auto tail = pipeline::Artifacts::resume(std::move(lb.segments), std::move(lb.labels));
        pipeline::StageTrace trace;
        builder.build(tail, pipeline::ProductKind::freeboard, nullptr,
                      is2::seasurface::Method::NasaEquation, &trace);
        add_stage_spans(tracer, span.id(), b, trace, item);
        for (std::size_t s = 0; s < pipeline::kNumStages; ++s)
          if (trace.ran[s]) traces[i].mark(static_cast<pipeline::StageId>(s), trace.ms[s]);
        for (const auto& p : tail.freeboard_out().points) fb_sum[i] += p.freeboard;
        points[i] = tail.freeboard_out().points.size();
      }
      r.reduce_task_s[i] = now_s() - a;
    });
    r.reduce_wall_s = now_s() - s0;
  }
  r.wall_s = now_s() - t0;

  for (std::size_t i = 0; i < n; ++i) {
    r.bytes += std::filesystem::file_size(in.shards.files[i]);
    for (std::size_t s = 0; s < pipeline::kNumStages; ++s)
      if (traces[i].ran[s]) r.stage_ms[s].push_back(traces[i].ms[s]);
    r.photons += parts[i].beams.at(0).h.size();
    r.preprocess_s += traces[i].ms[0] / 1e3;
    r.points += points[i];
    r.fb_sum += fb_sum[i];
  }
  r.auto_label_ms = al_ms;
  r.overlay_ms = ov_ms;
  return r;
}

class BatchStage : public Stage {
 public:
  explicit BatchStage(Setup& setup) : in_(setup.campaign) {}

  void step() override {
    // The nproc-slot jobs take a fraction of a second each, so they run twice
    // per step; the 1x1 job runs once, between them.
    for (int rep = 0; rep < 2; ++rep) {
      const auto al = autolabel_job(in_, parallel_);
      const auto fb = freeboard_job(in_, parallel_);
      al_rate_.push_back(static_cast<double>(al.segments) / job_s(al.timing));
      fb_rate_.push_back(static_cast<double>(fb.points) / job_s(fb.timing));
      if (!al0_) al0_ = al;
      if (!fb0_) fb0_ = fb;
      repeat_ok_ = repeat_ok_ && same_autolabel(al, *al0_) && same_freeboard(fb, *fb0_);
      if (rep == 0) {
        const auto fs = freeboard_job(in_, serial_);
        fb_serial_rate_.push_back(static_cast<double>(fs.points) / job_s(fs.timing));
        serial_ok_ = serial_ok_ && same_freeboard(fs, fb);
      }
    }
    attempted_ += 5;
  }

  void finish(Report& report) override {
    const auto al_serial = autolabel_job(in_, serial_);
    report.attempted += attempted_ + 1;
    std::printf("batch: %zu repetitions; autolabel %zu segments (%zu labeled, accuracy %.4f); "
                "freeboard %zu points, mean %.4f m\n",
                al_rate_.size(), al0_->segments, al0_->labeled, al0_->label_accuracy,
                fb0_->points, fb0_->mean_freeboard);
    std::printf("batch: autolabel seg/s %s\n", join(al_rate_).c_str());
    std::printf("batch: freeboard pts/s %s | serial %s\n", join(fb_rate_).c_str(),
                join(fb_serial_rate_).c_str());
    report.check(serial_ok_, "batch: freeboard job on nproc slots equals the 1x1 run");
    report.check(same_autolabel(al_serial, *al0_),
                 "batch: auto-label job on nproc slots equals the 1x1 run");
    report.check(repeat_ok_, "batch: repeated jobs give identical results");
    report.check(al0_->segments > 0 && fb0_->points > 0, "batch: jobs produce output");
    report.add("autolabel_segments_per_s", median(al_rate_), "1/s");
    report.add("freeboard_points_per_s", median(fb_rate_), "1/s");
    report.add("freeboard_serial_points_per_s", median(fb_serial_rate_), "1/s");
    report.add("label_accuracy", al0_->label_accuracy, "ratio");
  }

 private:
  const CampaignInputs& in_;
  // The engines' pools live as long as the stage. Pools made and dropped
  // every step change how many OpenMP threads the process manages, which
  // flips libgomp's spin-wait policy and with it the speed of the other
  // stages from step to step.
  is2::mapred::Engine parallel_{{1, nproc()}};
  is2::mapred::Engine serial_{{1, 1}};
  std::vector<double> al_rate_, fb_rate_, fb_serial_rate_;
  std::optional<core::AutoLabelJobStats> al0_;
  std::optional<core::FreeboardJobStats> fb0_;
  bool repeat_ok_ = true, serial_ok_ = true;
  std::uint64_t attempted_ = 0;
};

}  // namespace

void add_stage_spans(Tracer& tracer, int parent, double t0, const pipeline::StageTrace& trace,
                     std::int64_t item) {
  static const char* const kNames[pipeline::kNumStages] = {
      "pipeline.preprocess", "pipeline.resample",   "pipeline.fpb",      "pipeline.features",
      "pipeline.classify",   "pipeline.seasurface", "pipeline.freeboard"};
  double t = t0;
  for (std::size_t s = 0; s < pipeline::kNumStages; ++s) {
    if (!trace.ran[s]) continue;
    tracer.add(kNames[s], parent, t, t + trace.ms[s] / 1e3, item);
    t += trace.ms[s] / 1e3;
  }
}

std::unique_ptr<Stage> batch_stage(Setup& setup) { return std::make_unique<BatchStage>(setup); }

void trace_batch(Setup& setup, Tracer& tracer, Report& report) {
  const CampaignInputs& in = setup.campaign;
  is2::mapred::Engine parallel({1, nproc()});

  // One run of each job for its StageTiming, then the replay of the
  // freeboard job, untraced and traced, for the per-layer numbers.
  core::AutoLabelJobStats al;
  core::FreeboardJobStats fb;
  {
    Scope span(tracer, "core.run_autolabel_job");
    al = autolabel_job(in, parallel);
  }
  {
    Scope span(tracer, "core.run_freeboard_job");
    fb = freeboard_job(in, parallel);
  }
  report.attempted += 2;
  // Untraced and traced replays alternate, three of each, for the overhead.
  Tracer off(false);
  std::vector<double> plain_s, traced_s;
  std::optional<Replay> plain;
  Replay r;
  for (int k = 0; k < 3; ++k) {
    {
      Scope ref(tracer, "bench.untraced_reference");
      plain.emplace(replay_freeboard_job(parallel, setup, off, -1));
      plain_s.push_back(plain->wall_s);
    }
    Scope span(tracer, "core.replay_freeboard_job");
    r = replay_freeboard_job(parallel, setup, tracer, span.id());
    traced_s.push_back(r.wall_s);
  }
  report.attempted += 6;
  report.check(r.points == fb.points && plain->points == fb.points,
               "batch: replayed freeboard job gives the job's point count");
  report.check(r.fb_sum / static_cast<double>(r.points) == fb.mean_freeboard,
               "batch: replayed freeboard job gives the job's mean freeboard");

  report.add("mapred.autolabel.load_s", al.timing.load_s, "s");
  report.add("mapred.autolabel.map_s", al.timing.map_s, "s");
  report.add("mapred.autolabel.reduce_s", al.timing.reduce_s, "s");
  report.add("mapred.freeboard.load_s", fb.timing.load_s, "s");
  report.add("mapred.freeboard.map_s", fb.timing.map_s, "s");
  report.add("mapred.freeboard.reduce_s", fb.timing.reduce_s, "s");
  double task_sum = 0.0;
  for (double t : r.load_task_s) task_sum += t;
  for (double t : r.reduce_task_s) task_sum += t;
  report.add("mapred.busy_frac",
             task_sum / (static_cast<double>(nproc()) * (r.load_wall_s + r.reduce_wall_s)),
             "ratio");
  report.add("mapred.task_skew",
             *std::max_element(r.reduce_task_s.begin(), r.reduce_task_s.end()) /
                 median(r.reduce_task_s),
             "ratio");
  double load_s = 0.0;
  for (double t : r.load_task_s) load_s += t;
  report.add("h5lite.load_granule_ms_p50", median(r.load_ms), "ms");
  report.add("h5lite.read_MBps", static_cast<double>(r.bytes) / 1e6 / load_s, "MB/s");
  report.add("pipeline.preprocess_photons_per_s",
             static_cast<double>(r.photons) / r.preprocess_s, "1/s");
  for (std::size_t s : {0, 1, 2, 5, 6})
    report.add(std::string("pipeline.") + pipeline::stage_name(static_cast<pipeline::StageId>(s)) +
                   "_ms_p50",
               median(r.stage_ms[s]), "ms");
  report.add("label.auto_label_ms_p50", median(r.auto_label_ms), "ms");
  report.add("label.overlay_ms_p50", median(r.overlay_ms), "ms");
  report.add("core.partitions", static_cast<double>(in.shards.files.size()), "count");
  report.add("core.segments", static_cast<double>(al.segments), "count");
  report.add("freeboard.points", static_cast<double>(fb.points), "count");
  report.overhead["batch"] = median(traced_s) / median(plain_s) - 1.0;
  std::printf("batch traced: replay %s s traced vs %s s untraced\n", join(traced_s).c_str(),
              join(plain_s).c_str());
}

}  // namespace perfbench
