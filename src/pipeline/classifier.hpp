// Classifier backends for the `is2::pipeline` stage graph: the classify
// stage is the one pipeline stage with interchangeable implementations (the
// paper's deep models vs the ATL07-style decision tree; latent-embedding or
// retrieval classifiers slot in the same way), so it hides behind this
// interface and every caller — batch jobs, serve, benches — selects a
// backend per build instead of hard-wiring `nn::Sequential`.
//
// Ownership / threading contract: `classify()` must be safe to call from
// concurrent builds. `NnBackend` owns a checkout pool of model replicas
// (inference mutates Sequential scratch state), one per concurrent caller;
// each call runs on its caller's thread; its inference counters are
// relaxed atomics in an `obs::Registry`. `DecisionTreeBackend` wraps an
// immutable fitted tree and is trivially concurrent. A backend's
// `fingerprint()` is part of cache identity: it must change whenever the
// backend would produce different classes (weights version, tree
// structure).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "atl03/types.hpp"
#include "baseline/decision_tree.hpp"
#include "nn/model.hpp"
#include "obs/registry.hpp"
#include "pipeline/kinds.hpp"
#include "resample/segmenter.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace is2::pipeline {

/// One classifier implementation behind the classify stage. Returns one
/// class per feature row (parallel to the segments the features came from).
class ClassifierBackend {
 public:
  virtual ~ClassifierBackend() = default;

  virtual std::vector<atl03::SurfaceClass> classify(
      const std::vector<resample::FeatureRow>& features) = 0;

  /// Stable backend family (cache key field).
  virtual Backend id() const = 0;
  /// Identity hash of everything that changes predictions: mixed into the
  /// product cache key so retrained weights never serve stale products.
  virtual std::uint64_t fingerprint() const = 0;
  virtual const char* name() const { return backend_name(id()); }
};

/// Sliding-window classification of a feature sequence with one model:
/// standardize, window, predict 256 windows per forward pass,
/// center-assign, edge-fill. Edge segments inherit the nearest interior
/// prediction.
std::vector<atl03::SurfaceClass> classify_windows(nn::Sequential& model,
                                                  const resample::FeatureScaler& scaler,
                                                  const std::vector<resample::FeatureRow>& features,
                                                  std::size_t window);

/// The paper's deep-model path: a checkout pool of `nn::Sequential` replicas
/// (every call of the factory must produce numerically identical models).
/// Each classify() is `classify_windows` on one checked-out replica in the
/// calling thread; concurrency comes from the callers (scheduler workers),
/// never from inside a call. Predictions are bit-identical for any replica
/// count.
class NnBackend : public ClassifierBackend {
 public:
  using ModelFactory = std::function<nn::Sequential()>;

  /// `replicas` bounds concurrent classify() calls; a caller beyond that
  /// waits for a replica to be returned. Forward passes and windows are
  /// counted into `is2_serve_inference_{batches,windows}_total` of
  /// `registry` (nullptr = a private registry).
  NnBackend(ModelFactory factory, resample::FeatureScaler scaler, std::size_t window,
            std::size_t replicas = 1, std::uint64_t weights_version = 0,
            obs::Registry* registry = nullptr);

  std::vector<atl03::SurfaceClass> classify(
      const std::vector<resample::FeatureRow>& features) override;

  Backend id() const override { return Backend::nn; }
  std::uint64_t fingerprint() const override;

  /// Cumulative forward-pass batches / windows classified.
  std::uint64_t batches() const { return batches_total_->value(); }
  std::uint64_t windows() const { return windows_total_->value(); }

  std::size_t window() const { return window_; }
  const resample::FeatureScaler& scaler() const { return scaler_; }

 private:
  std::unique_ptr<nn::Sequential> checkout_replica();
  void return_replica(std::unique_ptr<nn::Sequential> model);

  resample::FeatureScaler scaler_;
  std::size_t window_;
  std::uint64_t weights_version_;

  util::Mutex replica_mutex_;
  util::CondVar replica_cv_;
  std::vector<std::unique_ptr<nn::Sequential>> replicas_ GUARDED_BY(replica_mutex_);

  std::unique_ptr<obs::Registry> owned_registry_;  ///< only when given none
  obs::Counter* batches_total_ = nullptr;
  obs::Counter* windows_total_ = nullptr;
};

/// The classical baseline: a fitted CART tree classifying each segment's
/// feature row independently (no window context, no standardization — tree
/// splits are scale-free). The class of model NASA's ATL07 surface
/// classification uses; dropping it in behind the same interface is the
/// whole point of the backend abstraction.
class DecisionTreeBackend : public ClassifierBackend {
 public:
  explicit DecisionTreeBackend(baseline::DecisionTree tree);

  std::vector<atl03::SurfaceClass> classify(
      const std::vector<resample::FeatureRow>& features) override;

  Backend id() const override { return Backend::decision_tree; }
  /// Hash of the fitted tree structure: retraining changes the fingerprint.
  std::uint64_t fingerprint() const override { return fingerprint_; }

  const baseline::DecisionTree& tree() const { return tree_; }

 private:
  baseline::DecisionTree tree_;
  std::uint64_t fingerprint_;
};

}  // namespace is2::pipeline
