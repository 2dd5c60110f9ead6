// The paper's workload as three stages that share one set-up:
//
//   set-up  generate the campaign, write the shards, read them once, label
//           the pairs and assemble the training windows, train the serving
//           model, start the service and warm its caches;
//   batch   the Table II auto-label and Table V freeboard map-reduce jobs;
//   train   the paper's LSTM: Sequential::fit and evaluate on the held-out
//           split; traced runs add train_distributed at 2 ranks
//           (Tables III/IV);
//   serve   open-loop Zipf traffic against one GranuleService.
//
// Every run goes through all three stages, because every run reports every
// end-to-end metric. The workload names the stage that steps twice per
// round (see run_rounds in main.cpp).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "h5lite/h5file.hpp"
#include "pipeline/stage.hpp"
#include "serve/service.hpp"

namespace perfbench {

/// The campaign: the paper's eight Ross Sea pairs (Table I) at the
/// library's `tiny` scene scale (6 km tracks) with the library's default
/// simulation seed, as per-beam chunk shards plus what the jobs need beside
/// them. The campaign is the benchmark's fixed dataset; the command-line
/// seed draws what a user would vary on it — the train/test split, the
/// trained model's initial weights and the request stream. (A campaign
/// drawn per seed makes the per-segment cost of the 6 km scenes differ by
/// ~30% between seeds, which would hide changes in the code behind changes
/// in the data.)
struct CampaignInputs {
  is2::core::PipelineConfig config = is2::core::PipelineConfig::tiny();
  std::optional<is2::core::Campaign> campaign;
  is2::core::ShardSet shards;
  std::vector<is2::s2::ClassRaster> rasters;  ///< segmented S2 labels per pair
  std::vector<is2::geo::Xy> drifts;           ///< true drift per pair
};

/// Everything the timed stages start from.
struct Setup {
  CampaignInputs campaign;
  is2::core::TrainingData training;  ///< windows, subsampled to a fixed size
  /// Serving model: weights of the paper's LSTM after a short fit, and the
  /// factory that rebuilds it (the service and the direct-build check use
  /// the same one).
  is2::h5::File serving_weights;
  is2::resample::FeatureScaler serving_scaler;
  std::function<is2::nn::Sequential()> serving_model;
  std::uint64_t seed = 0;
  std::unique_ptr<is2::serve::GranuleService> service;
  std::vector<is2::serve::ProductRequest> universe;  ///< Zipf rank order

  // Set-up timings (per-layer metrics of the traced run).
  std::vector<double> generate_pair_s, write_shards_s, label_pair_s;  ///< per pair
  double assemble_s = 0.0;
};

/// Build a Setup under `workdir`. Spans go to `tracer` (a disabled tracer
/// when not tracing).
std::unique_ptr<Setup> make_setup(const Args& args, Tracer& tracer);

/// The paper's LSTM with initial weights drawn from the seed.
is2::nn::Sequential fresh_lstm(std::uint64_t seed, const is2::core::PipelineConfig& config);

/// Start the GranuleService over the campaign's shards, build the request
/// universe and warm the caches (part of set-up).
void start_service(Setup& setup, const Args& args, Tracer& tracer, int parent);

/// Lay a StageTrace's stages out back to back from `t0` as child spans of
/// `parent` (the builder measures stage durations, not start times).
void add_stage_spans(Tracer& tracer, int parent, double t0,
                     const is2::pipeline::StageTrace& trace, std::int64_t item);

/// One stage of an untraced run. The run calls step() in rounds, so the
/// repetitions of every stage are spread over the whole measuring time and
/// a burst of load from elsewhere on the machine hits one repetition of
/// each stage instead of every repetition of one. finish() adds the
/// stage's end-to-end metrics and correctness checks.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual void step() = 0;
  virtual void finish(Report& report) = 0;
};

std::unique_ptr<Stage> batch_stage(Setup& setup);
std::unique_ptr<Stage> train_stage(Setup& setup);
std::unique_ptr<Stage> serve_stage(Setup& setup, const Args& args);

// Traced runs: each stage once, with a span around every layer call, adding
// per-layer metrics, correctness checks and the stage's tracing overhead.
void trace_batch(Setup& setup, Tracer& tracer, Report& report);
void trace_train(Setup& setup, Tracer& tracer, Report& report);
void trace_serve(Setup& setup, const Args& args, Tracer& tracer, Report& report);

}  // namespace perfbench
