#include "pipeline/classifier.hpp"

#include <algorithm>
#include <stdexcept>

#include "pipeline/fingerprint.hpp"

namespace is2::pipeline {

using atl03::SurfaceClass;

namespace {

/// Windows per forward pass of `classify_windows`.
constexpr std::size_t kClassifyBatchWindows = 256;

}  // namespace

// ---------------------------------------------------------------------------
// classify_windows
// ---------------------------------------------------------------------------

std::vector<SurfaceClass> classify_windows(nn::Sequential& model,
                                           const resample::FeatureScaler& scaler,
                                           const std::vector<resample::FeatureRow>& features,
                                           std::size_t window) {
  const std::size_t n = features.size();
  if (window == 0 || n < window) return std::vector<SurfaceClass>(n, SurfaceClass::Unknown);

  constexpr int kDim = resample::FeatureRow::kDim;
  std::vector<float> scaled(n * kDim);
  for (std::size_t i = 0; i < n; ++i)
    for (int d = 0; d < kDim; ++d)
      scaled[i * kDim + d] = (features[i].v[d] - scaler.mean[d]) / scaler.std[d];

  // Stage one batch of windows at a time and predict it in one forward
  // pass. A window's prediction depends only on its own rows, so the batch
  // partition never changes the result.
  const std::size_t n_windows = n - window + 1;
  std::vector<std::uint8_t> pred(n_windows);
  nn::Tensor3 x;
  for (std::size_t w0 = 0; w0 < n_windows; w0 += kClassifyBatchWindows) {
    const std::size_t rows = std::min(kClassifyBatchWindows, n_windows - w0);
    x.resize(rows, window, kDim);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t w = w0 + r;
      std::copy(scaled.data() + w * kDim, scaled.data() + (w + window) * kDim, x.at(r, 0));
    }
    model.predict_into(x, pred.data() + w0, rows);
  }

  // Each window's prediction lands on its center segment; edge segments
  // inherit the nearest interior prediction.
  std::vector<SurfaceClass> out(n, SurfaceClass::Unknown);
  const std::size_t half = window / 2;
  for (std::size_t w = 0; w < n_windows; ++w) out[w + half] = static_cast<SurfaceClass>(pred[w]);
  for (std::size_t i = 0; i < half; ++i) out[i] = out[half];
  for (std::size_t i = n - half; i < n; ++i) out[i] = out[n - half - 1];
  return out;
}

// ---------------------------------------------------------------------------
// NnBackend
// ---------------------------------------------------------------------------

NnBackend::NnBackend(ModelFactory factory, resample::FeatureScaler scaler, std::size_t window,
                     std::size_t replicas, std::uint64_t weights_version,
                     obs::Registry* registry)
    : scaler_(scaler), window_(window), weights_version_(weights_version) {
  if (!factory) throw std::invalid_argument("NnBackend: null model factory");
  if (window_ == 0) throw std::invalid_argument("NnBackend: zero window");
  obs::Registry& reg = obs::use_or_own(registry, owned_registry_);
  batches_total_ =
      &reg.counter("is2_serve_inference_batches_total", {}, "backend forward passes");
  windows_total_ = &reg.counter("is2_serve_inference_windows_total", {}, "windows classified");
  // One replica per concurrent caller: a checkout waits only when more
  // callers than `replicas` classify at once.
  const std::size_t n = replicas ? replicas : 1;
  replicas_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    replicas_.push_back(std::make_unique<nn::Sequential>(factory()));
}

std::uint64_t NnBackend::fingerprint() const {
  std::uint64_t h = 0x4E4EBAC0ULL;  // arbitrary backend domain tag
  h = fp_mix(h, weights_version_);
  h = fp_mix(h, static_cast<std::uint64_t>(window_));
  // The scaler changes predictions as surely as the weights do: a refit
  // scaler must be a new cache identity even when model_version is not
  // bumped, or persistent disk-tier products go stale undetected.
  for (int d = 0; d < resample::FeatureRow::kDim; ++d) {
    h = fp_mix(h, static_cast<double>(scaler_.mean[d]));
    h = fp_mix(h, static_cast<double>(scaler_.std[d]));
  }
  return h;
}

std::unique_ptr<nn::Sequential> NnBackend::checkout_replica() {
  util::MutexLock lock(replica_mutex_);
  // Explicit wait loop (not a predicate lambda): the thread-safety analysis
  // only accepts guarded reads it can see under the held lock.
  while (replicas_.empty()) replica_cv_.wait(lock);
  std::unique_ptr<nn::Sequential> model = std::move(replicas_.back());
  replicas_.pop_back();
  return model;
}

void NnBackend::return_replica(std::unique_ptr<nn::Sequential> model) {
  {
    util::MutexLock lock(replica_mutex_);
    replicas_.push_back(std::move(model));
  }
  replica_cv_.notify_one();
}

std::vector<SurfaceClass> NnBackend::classify(
    const std::vector<resample::FeatureRow>& features) {
  // Check a model replica out of the pool (inference mutates Sequential state).
  std::unique_ptr<nn::Sequential> model = checkout_replica();
  std::vector<SurfaceClass> out;
  try {
    out = classify_windows(*model, scaler_, features, window_);
  } catch (...) {
    return_replica(std::move(model));
    throw;
  }
  return_replica(std::move(model));

  if (features.size() >= window_) {
    const std::size_t n_windows = features.size() - window_ + 1;
    const std::size_t batches = (n_windows + kClassifyBatchWindows - 1) / kClassifyBatchWindows;
    batches_total_->inc(batches);
    windows_total_->inc(n_windows);
  }
  return out;
}

// ---------------------------------------------------------------------------
// DecisionTreeBackend
// ---------------------------------------------------------------------------

DecisionTreeBackend::DecisionTreeBackend(baseline::DecisionTree tree) : tree_(std::move(tree)) {
  if (!tree_.trained())
    throw std::invalid_argument("DecisionTreeBackend: tree must be fitted before serving");
  std::uint64_t h = 0x7EEE0001ULL;  // arbitrary backend domain tag
  fingerprint_ = fp_mix(h, tree_.structure_hash());
}

std::vector<SurfaceClass> DecisionTreeBackend::classify(
    const std::vector<resample::FeatureRow>& features) {
  std::vector<SurfaceClass> out(features.size(), SurfaceClass::Unknown);
  for (std::size_t i = 0; i < features.size(); ++i)
    out[i] = static_cast<SurfaceClass>(tree_.predict(features[i].v));
  return out;
}

}  // namespace is2::pipeline
