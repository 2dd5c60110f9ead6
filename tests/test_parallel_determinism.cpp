// Reentrancy for every kernel that task-level callers run side by side:
// label overlay, drift estimation, sentinel2 scene render, k-means,
// segmentation and Model::predict. Kernels are single-threaded; parallelism
// lives in scheduler workers, mapred executors and dist ranks, which call
// these kernels concurrently. Each test runs the kernel from 4 concurrent
// util::ThreadPool tasks and requires the bits of a lone call — the policy
// docs/performance.md documents. The TSan CI job runs this suite, so the
// same tests are the kernels' race coverage.
//
// The dist tests extend the policy to the rank-threaded training
// substrate: ring all-reduce results must not depend on rank arrival order,
// and a full 4-rank training run must be bit-reproducible.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "atl03/surface_model.hpp"
#include "dist/comm.hpp"
#include "dist/trainer.hpp"
#include "geo/polar_stereo.hpp"
#include "label/drift.hpp"
#include "label/overlay.hpp"
#include "nn/model.hpp"
#include "reentrancy.hpp"
#include "sentinel2/kmeans.hpp"
#include "sentinel2/scene_sim.hpp"
#include "sentinel2/segmentation.hpp"
#include "util/rng.hpp"

namespace {

using namespace is2;
using atl03::SurfaceClass;
using test::expect_reentrant;

void expect_same_classes(const s2::ClassRaster& a, const s2::ClassRaster& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) ASSERT_EQ(a.at(r, c), b.at(r, c));
}

/// Striped raster + consistent segments (mirrors test_label's fixture).
s2::ClassRaster striped_raster(double stripe_m = 400.0, double pixel = 10.0) {
  s2::GeoTransform gt{0.0, 1'000.0, pixel};
  const auto cols = static_cast<std::size_t>(3.0 * stripe_m / pixel);
  s2::ClassRaster r(100, cols, gt);
  for (std::size_t row = 0; row < 100; ++row)
    for (std::size_t col = 0; col < cols; ++col) {
      const double x = gt.pixel_center(row, col).x;
      r.set(row, col,
            x < stripe_m         ? SurfaceClass::OpenWater
            : x < 2.0 * stripe_m ? SurfaceClass::ThinIce
                                 : SurfaceClass::ThickIce);
    }
  return r;
}

std::vector<resample::Segment> striped_segments(double stripe_m = 400.0, double shift_x = 0.0) {
  std::vector<resample::Segment> segs;
  for (double x = 1.0; x < 3.0 * stripe_m; x += 2.0) {
    resample::Segment s;
    s.s = x;
    s.x = x + shift_x;
    s.y = 500.0;
    s.h_mean = x < stripe_m ? 0.0 : x < 2 * stripe_m ? 0.06 : 0.45;
    s.h_std = 0.02;
    s.n_photons = 10;
    segs.push_back(s);
  }
  return segs;
}

struct SceneFixture {
  geo::GeoCorrections corrections{7};
  atl03::SurfaceConfig scfg;
  geo::GroundTrack track;
  atl03::SurfaceModel surface;

  SceneFixture()
      : track(geo::PolarStereo::epsg3976().forward({-160.0, -76.0}), 0.9),
        surface((scfg.length_m = 5'000.0, scfg), track, corrections, 77) {}
};

s2::Scene render_scene(const SceneFixture& fx, double cloud_cover) {
  s2::SceneConfig cfg;
  cfg.cross_track_halfwidth_m = 600.0;
  cfg.margin_m = 200.0;
  cfg.cloud_cover = cloud_cover;
  s2::SceneSimulator sim(cfg, 31);
  return sim.render(fx.surface, {120.0, -60.0}, 500.0);
}

TEST(ParallelDeterminism, OverlayLabelsReentrant) {
  const auto raster = striped_raster();
  const auto segs = striped_segments();
  label::OverlayConfig cfg;
  cfg.vote_radius_px = 1;
  expect_reentrant([&] { return label::overlay_labels(raster, segs, cfg); },
                   [](const auto& a, const auto& b) { EXPECT_EQ(a, b); });
}

TEST(ParallelDeterminism, DriftEstimateReentrant) {
  const auto raster = striped_raster();
  const auto segs = striped_segments(400.0, -150.0);
  std::vector<double> baseline(segs.size(), 0.0);
  label::DriftConfig cfg;
  expect_reentrant([&] { return label::estimate_drift(raster, segs, baseline, cfg); },
                   [](const label::DriftEstimate& a, const label::DriftEstimate& b) {
                     EXPECT_EQ(a.shift.x, b.shift.x);
                     EXPECT_EQ(a.shift.y, b.shift.y);
                     EXPECT_EQ(a.score, b.score);
                     EXPECT_EQ(a.score_unshifted, b.score_unshifted);
                   });
}

TEST(ParallelDeterminism, SceneRenderReentrant) {
  SceneFixture fx;
  expect_reentrant([&] { return render_scene(fx, 0.25); },
                   [](const s2::Scene& a, const s2::Scene& b) {
                     ASSERT_EQ(a.image.rows(), b.image.rows());
                     ASSERT_EQ(a.image.cols(), b.image.cols());
                     for (int band = 0; band < s2::kNumBands; ++band) {
                       const float* ab = a.image.band_data(static_cast<s2::Band>(band));
                       const float* bb = b.image.band_data(static_cast<s2::Band>(band));
                       for (std::size_t i = 0; i < a.image.pixel_count(); ++i)
                         ASSERT_EQ(ab[i], bb[i]) << "band " << band << " px " << i;
                     }
                     EXPECT_EQ(a.cloud_tau, b.cloud_tau);
                     EXPECT_EQ(a.shadow_mask, b.shadow_mask);
                     expect_same_classes(a.truth_class, b.truth_class);
                   });
}

TEST(ParallelDeterminism, KMeansReentrant) {
  // The inertia is a float reduction; it sums in point-index order, so it
  // is bit-stable however many callers run at once.
  util::Rng rng(5);
  std::vector<float> points(3 * 4000);
  for (auto& v : points) v = static_cast<float>(rng.uniform(0.0, 1.0));
  expect_reentrant([&] { return s2::kmeans(points, 3, 5, util::Rng(11), 25); },
                   [](const s2::KMeansResult& a, const s2::KMeansResult& b) {
                     EXPECT_EQ(a.labels, b.labels);
                     EXPECT_EQ(a.centroids, b.centroids);
                     EXPECT_EQ(a.inertia, b.inertia);
                     EXPECT_EQ(a.iterations, b.iterations);
                   });
}

TEST(ParallelDeterminism, SegmentationReentrant) {
  SceneFixture fx;
  const auto scene = render_scene(fx, 0.3);
  s2::SegmentationConfig cfg;
  expect_reentrant([&] { return s2::segment(scene.image, cfg); },
                   [](const s2::SegmentationResult& a, const s2::SegmentationResult& b) {
                     EXPECT_EQ(a.thick_cloud_pixels, b.thick_cloud_pixels);
                     EXPECT_EQ(a.thin_cloud_corrected, b.thin_cloud_corrected);
                     EXPECT_EQ(a.shadow_corrected, b.shadow_corrected);
                     expect_same_classes(a.labels, b.labels);
                   });
}

TEST(ParallelDeterminism, ModelPredictReentrant) {
  // Serve's scheduler workers each run predict on their own replica at
  // batch 256; the replicas share only the (thread_local) kernel scratch.
  nn::Tensor3 x(600, 9, 6);
  util::Rng xr(8);
  for (auto& v : x.v) v = static_cast<float>(xr.normal(0.0, 1.0));
  expect_reentrant(
      [&] {
        util::Rng rng(7);
        nn::Sequential model = nn::make_lstm_model(9, 6, rng);
        return model.predict(x, 256);
      },
      [](const auto& a, const auto& b) { EXPECT_EQ(a, b); });
}

TEST(ParallelDeterminism, AllreduceArrivalOrderIndependent) {
  // The ring parenthesizes each chunk's sum by topology, not by arrival:
  // staggering rank start times must not change a single bit, and all
  // ranks must end byte-identical.
  const int ranks = 4;
  const std::size_t len = 1'000;
  auto run = [&](bool staggered) {
    dist::Communicator comm(ranks);
    std::vector<std::vector<float>> bufs(ranks);
    for (int r = 0; r < ranks; ++r) {
      util::Rng rng(200 + static_cast<std::uint64_t>(r));
      bufs[static_cast<std::size_t>(r)].resize(len);
      for (auto& v : bufs[static_cast<std::size_t>(r)])
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    std::vector<std::thread> threads;
    for (int r = 0; r < ranks; ++r)
      threads.emplace_back([&, r] {
        if (staggered) std::this_thread::sleep_for(std::chrono::milliseconds(3 * r));
        comm.allreduce_sum(r, bufs[static_cast<std::size_t>(r)]);
      });
    for (auto& t : threads) t.join();
    return bufs;
  };
  const auto together = run(false);
  const auto staggered = run(true);
  for (int r = 0; r < ranks; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    ASSERT_EQ(0, std::memcmp(together[ur].data(), staggered[ur].data(), len * sizeof(float)))
        << "rank " << r << " differs between simultaneous and staggered starts";
    ASSERT_EQ(0, std::memcmp(together[0].data(), together[ur].data(), len * sizeof(float)))
        << "rank " << r << " diverged from rank 0";
  }
}

TEST(ParallelDeterminism, DistTrainFourRanksBitIdentical) {
  // Two full 4-rank training runs must produce bit-identical final weights:
  // shared shuffle streams, fixed bucket boundaries and ring-ordered
  // reductions leave no scheduling-dependent float op anywhere.
  util::Rng drng(31);
  nn::Dataset train;
  train.x = nn::Tensor3(600, 5, 6);
  train.y.resize(600);
  for (std::size_t i = 0; i < 600; ++i) {
    const auto cls = static_cast<std::uint8_t>(drng.uniform_int(0, 2));
    for (std::size_t t = 0; t < 5; ++t) {
      float* row = train.x.at(i, t);
      for (int f = 0; f < 6; ++f) row[f] = static_cast<float>(drng.normal(cls * 1.0, 0.5));
    }
    train.y[i] = cls;
  }
  const auto test = train;  // evaluation set is irrelevant to the weights

  auto run = [&] {
    dist::TrainerConfig cfg;
    cfg.ranks = 4;
    cfg.epochs = 3;
    return dist::train_distributed(
        [] {
          util::Rng rng(33);
          return nn::make_mlp_model(5, 6, rng);
        },
        train, test, cfg);
  };
  auto a = run();
  auto b = run();
  auto pa = a.model.params();
  auto pb = b.model.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].value->size(), pb[i].value->size());
    ASSERT_EQ(0, std::memcmp(pa[i].value->data(), pb[i].value->data(),
                             pa[i].value->size() * sizeof(float)))
        << "parameter " << pa[i].name << " differs between identical runs";
  }
  EXPECT_EQ(a.test_metrics.accuracy, b.test_metrics.accuracy);
}

}  // namespace
