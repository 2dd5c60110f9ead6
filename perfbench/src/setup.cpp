// Set-up shared by every workload: everything before the first timed call.
#include <array>
#include <atomic>
#include <filesystem>
#include <thread>

#include "h5lite/granule_io.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {

namespace core = is2::core;
namespace nn = is2::nn;

namespace {

/// The training split is subsampled to a fixed size, class-balanced (up to
/// a third of the windows from each class, the majority class filling the
/// rest): the rarest class is 1-3% of a campaign, and without balancing
/// whether a short fit learns it at all decides the macro F1, which then
/// swings between seeds. The test split is the whole held-out 20%.
constexpr std::size_t kTrainWindows = 12288;
/// The serving model is the deployed artifact, the same in every run: one
/// epoch over kServingWindows windows of the split drawn by kServingSeed.
constexpr std::size_t kServingWindows = 4096;
constexpr std::uint64_t kServingSeed = 0;

nn::Dataset balanced_subsample(const nn::Dataset& data, std::size_t n) {
  if (data.size() <= n) return data;
  std::array<std::vector<std::size_t>, is2::atl03::kNumClasses> by_class;
  for (std::size_t i = 0; i < data.size(); ++i) by_class[data.y[i]].push_back(i);
  std::vector<char> take(data.size(), 0);
  std::size_t taken = 0;
  for (const auto& rows : by_class)
    for (std::size_t k = 0; k < std::min(n / by_class.size(), rows.size()); ++k, ++taken)
      take[rows[k]] = 1;
  for (std::size_t i = 0; i < data.size() && taken < n; ++i)
    if (!take[i]) take[i] = 1, ++taken;
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (take[i]) idx.push_back(i);
  return data.subset(idx);
}

nn::Dataset head(const nn::Dataset& data, std::size_t n) {
  std::vector<std::size_t> idx(std::min(n, data.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return data.subset(idx);
}

/// Generate, shard and label every pair. Each of nproc() threads takes a
/// pair through Campaign::generate, core::write_shards and core::label_pair
/// and then drops its granule, so at most nproc() granules are in memory.
std::vector<core::LabeledPair> build_campaign(Setup& s, const std::string& dir, Tracer& tracer,
                                              int parent) {
  CampaignInputs& in = s.campaign;
  in.campaign.emplace(in.config);
  const std::size_t n = in.campaign->pairs().size();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<core::ShardSet> shards(n);
  std::vector<std::optional<is2::s2::ClassRaster>> rasters(n);
  std::vector<core::LabeledPair> labeled(n);
  in.drifts.assign(n, {});
  s.generate_pair_s.assign(n, 0.0);
  s.write_shards_s.assign(n, 0.0);
  s.label_pair_s.assign(n, 0.0);

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t k; (k = next.fetch_add(1)) < n;) {
      const auto item = static_cast<std::int64_t>(k);
      double t0 = now_s();
      std::optional<core::PairDataset> pair;
      {
        Scope span(tracer, "core.generate_pair", parent, item);
        pair.emplace(in.campaign->generate(k));
      }
      double t1 = now_s();
      s.generate_pair_s[k] = t1 - t0;
      {
        Scope span(tracer, "core.write_shards", parent, item);
        core::write_shards(pair->granule, k, in.config.chunks_per_beam, dir, shards[k]);
      }
      t0 = now_s();
      s.write_shards_s[k] = t0 - t1;
      {
        Scope span(tracer, "core.label_pair", parent, item);
        labeled[k] = core::label_pair(*pair, in.campaign->corrections(), in.config);
      }
      s.label_pair_s[k] = now_s() - t0;
      labeled[k].beams.clear();  // assembling reads only the labeled segments
      in.drifts[k] = pair->pair.true_drift();
      rasters[k].emplace(std::move(pair->s2_labels));
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < std::min(nproc(), n); ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  in.shards = {};
  in.rasters.clear();
  for (std::size_t k = 0; k < n; ++k) {
    in.shards.files.insert(in.shards.files.end(), shards[k].files.begin(), shards[k].files.end());
    in.shards.pair_of_file.insert(in.shards.pair_of_file.end(), shards[k].pair_of_file.begin(),
                                  shards[k].pair_of_file.end());
    in.rasters.push_back(std::move(*rasters[k]));
  }
  return labeled;
}

/// The untimed pass over the shard files: every file decoded once
/// (`h5::load_granule`), so the page cache holds them before the first
/// timed job.
void read_all_shards(const core::ShardSet& shards, Tracer& tracer, int parent) {
  for (std::size_t i = 0; i < shards.files.size(); ++i) {
    Scope span(tracer, "h5lite.load_granule", parent, static_cast<std::int64_t>(i));
    const auto granule = is2::h5::load_granule(shards.files[i]);
    (void)granule;
  }
}

}  // namespace

nn::Sequential fresh_lstm(std::uint64_t seed, const core::PipelineConfig& config) {
  is2::util::Rng rng(is2::util::hash64(seed ^ 0x7517ull));
  return nn::make_lstm_model(config.sequence_window, is2::resample::FeatureRow::kDim, rng);
}

std::unique_ptr<Setup> make_setup(const Args& args, Tracer& tracer) {
  auto s = std::make_unique<Setup>();
  s->seed = args.seed;
  Scope root(tracer, "core.setup");

  const std::vector<core::LabeledPair> labeled =
      build_campaign(*s, args.workdir + "/shards", tracer, root.id());
  read_all_shards(s->campaign.shards, tracer, root.id());
  const core::PipelineConfig& config = s->campaign.config;

  core::TrainingData serving_data;
  {
    Scope span(tracer, "core.assemble", root.id());
    const double t0 = now_s();
    auto data = core::assemble_training_data(labeled, config, 0.8, args.seed);
    s->training.scaler = data.scaler;
    s->training.train = balanced_subsample(data.train, kTrainWindows);
    s->training.test = std::move(data.test);
    s->assemble_s = now_s() - t0;
    serving_data = core::assemble_training_data(labeled, config, 0.8, kServingSeed);
  }
  {
    Scope span(tracer, "nn.fit_serving_model", root.id());
    nn::Sequential model = fresh_lstm(kServingSeed, config);
    nn::Adam opt(0.003);
    nn::FocalLoss loss(2.0);
    nn::FitConfig fc;
    fc.epochs = 1;
    model.fit(head(balanced_subsample(serving_data.train, kTrainWindows), kServingWindows), loss,
              opt, fc);
    s->serving_weights = nn::weights_to_file(model);
    s->serving_scaler = serving_data.scaler;
    const is2::h5::File* weights = &s->serving_weights;
    s->serving_model = [weights, config] {
      nn::Sequential m = fresh_lstm(kServingSeed, config);
      nn::weights_from_file(m, *weights);
      return m;
    };
  }
  start_service(*s, args, tracer, root.id());
  return s;
}

}  // namespace perfbench
