// Chaos-layer tests: the deterministic fault-injection plan (triggers,
// seeded replay, instance filters, obs mirror), the seeded Backoff schedule
// and Deadline budget, disk-read retry vs corrupt-drop under injected
// faults, async write-back retry/exhaustion, queue-deadline expiry as a
// failure mode distinct from load shedding, transport liveness (tag
// mismatch leaves the channel head intact; recv timeout poisons the group;
// an injected send fault aborts every rank; the trainer surfaces
// CollectiveAbort), and the cluster's self-healing loop — consecutive
// failures quarantine with live failover, hot keys re-replicate off the
// quarantined node, revive restores the ring bit-identically, dead nodes
// are never probed, and routing imbalance averages over live nodes only.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "core/campaign.hpp"
#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "dist/comm.hpp"
#include "dist/trainer.hpp"
#include "dist/transport.hpp"
#include "nn/model.hpp"
#include "obs/registry.hpp"
#include "serve/cluster.hpp"
#include "serve/disk_cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "util/backoff.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace {

using namespace is2;
using atl03::BeamId;
using serve::Cluster;
using serve::ClusterConfig;
using serve::GranuleProduct;
using serve::ProductKey;
using serve::ProductRequest;
using util::fault::InjectedFault;
using util::fault::SiteConfig;

// The failure taxonomy call sites dispatch on: a deadline expiry is not a
// shed, an injected fault is an ordinary runtime_error (call sites treat it
// as the IO error it stands in for), and a collective abort is its own
// liveness error — none is a subtype of another.
static_assert(!std::is_base_of_v<serve::ShedError, serve::DeadlineError>);
static_assert(!std::is_base_of_v<serve::DeadlineError, serve::ShedError>);
static_assert(std::is_base_of_v<std::runtime_error, InjectedFault>);
static_assert(!std::is_base_of_v<dist::CollectiveAbort, InjectedFault>);
static_assert(!std::is_base_of_v<InjectedFault, dist::CollectiveAbort>);

// ---------------------------------------------------------------------------
// fault::Plan (pure)
// ---------------------------------------------------------------------------

TEST(FaultPlan, UnarmedInjectIsANoOp) {
  // No plan armed: the site hook must be a silent pass-through.
  for (int i = 0; i < 100; ++i) EXPECT_NO_THROW(util::fault::inject("disk.read", i));
}

TEST(FaultPlan, NthEveryAndCapTriggersFireExactly) {
  util::fault::Plan plan(1);
  plan.on("nth", [] { SiteConfig c; c.fail_nth = 2; return c; }());
  plan.on("every", [] { SiteConfig c; c.fail_every = 3; return c; }());
  plan.on("capped", [] {
    SiteConfig c;
    c.fail_every = 1;
    c.max_failures = 2;
    return c;
  }());
  util::fault::Armed armed(plan);

  std::vector<bool> nth, every, capped;
  for (int i = 0; i < 9; ++i) {
    auto fired = [](const char* site) {
      try {
        util::fault::inject(site);
        return false;
      } catch (const InjectedFault&) {
        return true;
      }
    };
    nth.push_back(fired("nth"));
    every.push_back(fired("every"));
    capped.push_back(fired("capped"));
  }
  EXPECT_EQ(nth, (std::vector<bool>{false, true, false, false, false, false, false, false, false}));
  EXPECT_EQ(every,
            (std::vector<bool>{false, false, true, false, false, true, false, false, true}));
  EXPECT_EQ(capped,
            (std::vector<bool>{true, true, false, false, false, false, false, false, false}));
  EXPECT_EQ(plan.hits("nth"), 9u);
  EXPECT_EQ(plan.failures("nth"), 1u);
  EXPECT_EQ(plan.failures("every"), 3u);
  EXPECT_EQ(plan.failures("capped"), 2u);
}

TEST(FaultPlan, SeededRateReplaysBitIdentically) {
  auto pattern_for = [](std::uint64_t seed) {
    util::fault::Plan plan(seed);
    SiteConfig c;
    c.fail_rate = 0.3;
    plan.on("p", c);
    util::fault::Armed armed(plan);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) {
      try {
        util::fault::inject("p");
        pattern.push_back(false);
      } catch (const InjectedFault&) {
        pattern.push_back(true);
      }
    }
    return pattern;
  };
  const auto a = pattern_for(42), b = pattern_for(42), c = pattern_for(43);
  EXPECT_EQ(a, b);  // same seed, same traffic -> the same chaos, bit for bit
  EXPECT_NE(a, c);
  const auto failures = static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(failures, 200u * 3 / 20);  // ~0.3 of 200, loose statistical bounds
  EXPECT_LT(failures, 200u * 9 / 20);
}

TEST(FaultPlan, InstanceFilterAndRegistryMirror) {
  obs::Registry reg;
  util::fault::Plan plan(7, &reg);
  SiteConfig only2;
  only2.instance = 2;
  only2.fail_every = 1;
  plan.on("peer", only2);
  util::fault::Armed armed(plan);

  EXPECT_NO_THROW(util::fault::inject("peer", 0));
  EXPECT_NO_THROW(util::fault::inject("peer", 1));
  EXPECT_THROW(util::fault::inject("peer", 2), InjectedFault);
  EXPECT_EQ(plan.hits("peer"), 1u);  // only the matching instance counts
  EXPECT_EQ(plan.failures("peer"), 1u);

  double hits = -1.0, injected = -1.0;
  for (const auto& p : reg.snapshot().points) {
    const bool site_labeled =
        std::find(p.labels.begin(), p.labels.end(),
                  std::pair<std::string, std::string>{"site", "peer"}) != p.labels.end();
    if (p.name == "is2_fault_hits_total" && site_labeled) hits = p.value;
    if (p.name == "is2_fault_injected_total" && site_labeled) injected = p.value;
  }
  EXPECT_DOUBLE_EQ(hits, 1.0);
  EXPECT_DOUBLE_EQ(injected, 1.0);
}

// ---------------------------------------------------------------------------
// Backoff / Deadline (pure)
// ---------------------------------------------------------------------------

TEST(Backoff, ExponentialScheduleIsExactAndCapped) {
  util::BackoffConfig cfg;
  cfg.base_ms = 1.0;
  cfg.max_ms = 8.0;
  cfg.multiplier = 2.0;
  cfg.decorrelated = false;
  util::Backoff b(cfg, 0);
  EXPECT_DOUBLE_EQ(b.next_ms(), 1.0);
  EXPECT_DOUBLE_EQ(b.next_ms(), 2.0);
  EXPECT_DOUBLE_EQ(b.next_ms(), 4.0);
  EXPECT_DOUBLE_EQ(b.next_ms(), 8.0);
  EXPECT_DOUBLE_EQ(b.next_ms(), 8.0);  // capped, stays capped
  EXPECT_EQ(b.attempts(), 5u);
  b.reset();
  EXPECT_EQ(b.attempts(), 0u);
  EXPECT_DOUBLE_EQ(b.next_ms(), 1.0);  // schedule restarts from base
}

TEST(Backoff, DecorrelatedJitterIsSeededAndBounded) {
  util::BackoffConfig cfg;
  cfg.base_ms = 0.5;
  cfg.max_ms = 20.0;
  util::Backoff a(cfg, 7), b(cfg, 7), c(cfg, 8);
  std::vector<double> sa, sb, sc;
  for (int i = 0; i < 20; ++i) {
    sa.push_back(a.next_ms());
    sb.push_back(b.next_ms());
    sc.push_back(c.next_ms());
  }
  EXPECT_EQ(sa, sb);  // a retry schedule replays bit-identically per seed
  EXPECT_NE(sa, sc);
  for (const double v : sa) {
    EXPECT_GE(v, cfg.base_ms);
    EXPECT_LE(v, cfg.max_ms);
  }
}

TEST(DeadlineBudget, UnlimitedNeverExpiresAndLimitedSpendsDown) {
  const util::Deadline unlimited;
  EXPECT_FALSE(unlimited.limited());
  EXPECT_FALSE(unlimited.expired());
  EXPECT_GT(unlimited.remaining_ms(), 1e9);

  const util::Deadline d(30.0);
  EXPECT_TRUE(d.limited());
  EXPECT_FALSE(d.expired());
  EXPECT_LE(d.remaining_ms(), 30.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(45));
  EXPECT_TRUE(d.expired());
  EXPECT_DOUBLE_EQ(d.remaining_ms(), 0.0);
}

// ---------------------------------------------------------------------------
// DiskCache under injected read faults (synthetic products, no campaign)
// ---------------------------------------------------------------------------

GranuleProduct tiny_product(const std::string& id) {
  GranuleProduct p;
  p.granule_id = id;
  p.beam = BeamId::Gt1r;
  p.segments.resize(8);
  p.classes.assign(8, static_cast<atl03::SurfaceClass>(1));
  for (std::size_t i = 0; i < p.segments.size(); ++i) {
    p.segments[i].s = 2.0 * static_cast<double>(i);
    p.segments[i].h_mean = 0.1 * static_cast<double>(i);
  }
  return p;
}

class DiskCacheChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("is2_chaos_disk_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(DiskCacheChaos, TransientReadFaultIsRetriedAndServed) {
  obs::Registry reg;
  serve::DiskCacheConfig dcfg;
  dcfg.dir = dir_;
  dcfg.registry = &reg;
  serve::DiskCache cache(dcfg);
  const ProductKey key{"chaos_granule", BeamId::Gt1r, 0xD15C};
  cache.put(key, tiny_product(key.granule_id));

  util::fault::Plan plan(11);
  SiteConfig once;
  once.fail_nth = 1;
  plan.on("disk.read", once);
  util::fault::Armed armed(plan);

  // The first read attempt throws; one backoff'd retry serves the healthy
  // file instead of rebuilding the product.
  const auto hit = cache.get(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->segments.size(), 8u);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.disk_read_retries, 1u);
  EXPECT_EQ(st.corrupt_dropped, 0u);
  EXPECT_EQ(st.entries, 1u);

  double mirrored = -1.0;
  for (const auto& p : reg.snapshot().points)
    if (p.name == "is2_cache_read_retries_total") mirrored = p.value;
  EXPECT_DOUBLE_EQ(mirrored, 1.0);
}

TEST_F(DiskCacheChaos, PersistentReadFaultExhaustsRetriesAndDropsAsCorrupt) {
  serve::DiskCacheConfig dcfg;
  dcfg.dir = dir_;
  serve::DiskCache cache(dcfg);
  const ProductKey key{"chaos_granule", BeamId::Gt1r, 0xD15C};
  cache.put(key, tiny_product(key.granule_id));
  const auto path = std::filesystem::path(dir_) / serve::DiskCache::filename_for(key);
  ASSERT_TRUE(std::filesystem::exists(path));

  util::fault::Plan plan(12);
  SiteConfig always;
  always.fail_every = 1;
  plan.on("disk.read", always);
  util::fault::Armed armed(plan);

  // Both attempts fail: indistinguishable from a corrupt file, so the
  // delete-as-corrupt path runs and the probe reports a miss.
  EXPECT_EQ(cache.get(key), nullptr);
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.disk_read_retries, 1u);
  EXPECT_EQ(st.corrupt_dropped, 1u);
  EXPECT_EQ(st.entries, 0u);
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ---------------------------------------------------------------------------
// Transport / collectives under chaos
// ---------------------------------------------------------------------------

/// Run fn(rank) on `n` threads and join.
void on_ranks(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  for (int r = 0; r < n; ++r) threads.emplace_back([&, r] { fn(r); });
  for (auto& t : threads) t.join();
}

TEST(TransportChaos, TagMismatchLeavesTheMessageAtTheChannelHead) {
  dist::InProcessTransport t(2);
  const std::vector<float> payload{1.0f, 2.0f, 3.0f};
  t.send(0, 1, /*tag=*/7, payload.data(), payload.size());

  // A protocol divergence throws without consuming: the diverged state
  // stays inspectable, and it is NOT a liveness abort.
  std::vector<float> out(3, 0.0f);
  EXPECT_THROW(t.recv(0, 1, /*tag=*/8, out.data(), out.size()), std::runtime_error);
  EXPECT_FALSE(t.aborted());
  EXPECT_EQ(t.pending(0, 1), 1u);
  EXPECT_THROW(t.recv(0, 1, /*tag=*/7, out.data(), 2), std::runtime_error);  // length too
  EXPECT_EQ(t.pending(0, 1), 1u);

  // The matching receive then consumes exactly that message.
  t.recv(0, 1, /*tag=*/7, out.data(), out.size());
  EXPECT_EQ(out, payload);
  EXPECT_EQ(t.pending(0, 1), 0u);
}

TEST(TransportChaos, RecvTimeoutPoisonsTheWholeGroup) {
  dist::InProcessTransport t(2, /*recv_timeout_ms=*/50.0);
  std::vector<float> out(1, 0.0f);
  EXPECT_THROW(t.recv(0, 1, 0, out.data(), 1), dist::CollectiveAbort);
  EXPECT_TRUE(t.aborted());
  // Poisoned transport: sends and further recvs fail fast instead of
  // queueing into a dead group.
  EXPECT_THROW(t.send(0, 1, 0, out.data(), 1), dist::CollectiveAbort);
  EXPECT_THROW(t.recv(1, 0, 0, out.data(), 1), dist::CollectiveAbort);
}

TEST(CommChaos, InjectedSendFaultAbortsEveryRank) {
  // Rank 1 dies mid-collective (its first ring send throws); the liveness
  // machinery must fail ranks 0 and 2 with CollectiveAbort instead of
  // leaving them blocked in recv forever. The timeout is a backstop — the
  // abort propagates by poisoning, far faster.
  dist::Communicator comm(3, /*recv_timeout_ms=*/5000.0);
  util::fault::Plan plan(3);
  SiteConfig die;
  die.instance = 1;
  die.fail_nth = 1;
  plan.on("dist.send", die);
  util::fault::Armed armed(plan);

  std::array<std::exception_ptr, 3> errors{};
  on_ranks(3, [&](int r) {
    std::vector<float> buf(64, static_cast<float>(r));
    try {
      comm.allreduce_sum(r, buf);
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
    }
  });
  EXPECT_TRUE(comm.aborted());
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(errors[static_cast<std::size_t>(r)]) << "rank " << r << " did not fail";
    EXPECT_THROW(std::rethrow_exception(errors[static_cast<std::size_t>(r)]),
                 dist::CollectiveAbort)
        << "rank " << r;
  }
  EXPECT_EQ(plan.failures("dist.send"), 1u);  // one fault took down the group
}

nn::Dataset toy_task(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Dataset d;
  d.x = nn::Tensor3(n, 5, 6);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cls = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
    for (std::size_t t = 0; t < 5; ++t) {
      float* row = d.x.at(i, t);
      for (int f = 0; f < 6; ++f) row[f] = static_cast<float>(rng.normal(cls * 1.0, 0.5));
    }
    d.y[i] = cls;
  }
  return d;
}

TEST(TrainerChaos, SurfacesCollectiveAbortInsteadOfHanging) {
  const auto train = toy_task(64, 1);
  const auto test = toy_task(16, 2);
  dist::TrainerConfig cfg;
  cfg.ranks = 2;
  cfg.epochs = 1;
  cfg.recv_timeout_ms = 5000.0;  // backstop only; the abort poisons first

  util::fault::Plan plan(4);
  SiteConfig die;
  die.fail_nth = 1;
  plan.on("dist.recv", die);
  util::fault::Armed armed(plan);

  EXPECT_THROW(dist::train_distributed(
                   [] {
                     util::Rng rng(3);
                     return nn::make_mlp_model(5, 6, rng);
                   },
                   train, test, cfg),
               dist::CollectiveAbort);
}

// ---------------------------------------------------------------------------
// Campaign-backed chaos: deadlines, write-back retry, cluster self-healing
// ---------------------------------------------------------------------------

/// Field-exact comparison (same bar as test_cluster: every healed or
/// failed-over path must serve the same bits as a healthy single node).
void expect_bit_identical(const GranuleProduct& a, const GranuleProduct& b) {
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].s, b.segments[i].s);
    EXPECT_EQ(a.segments[i].h_mean, b.segments[i].h_mean);
    EXPECT_EQ(a.segments[i].h_std, b.segments[i].h_std);
  }
  ASSERT_EQ(a.classes, b.classes);
  ASSERT_EQ(a.freeboard.points.size(), b.freeboard.points.size());
  for (std::size_t i = 0; i < a.freeboard.points.size(); ++i) {
    EXPECT_EQ(a.freeboard.points[i].s, b.freeboard.points[i].s);
    EXPECT_EQ(a.freeboard.points[i].freeboard, b.freeboard.points[i].freeboard);
    EXPECT_EQ(a.freeboard.points[i].cls, b.freeboard.points[i].cls);
  }
}

/// A router counter from the cluster's registry.
std::uint64_t counter(const Cluster& cluster, const std::string& name) {
  const obs::RegistrySnapshot snap = cluster.registry().snapshot();
  const obs::MetricPoint* p = snap.find(name);
  EXPECT_NE(p, nullptr) << name;
  return p ? static_cast<std::uint64_t>(p->value) : 0;
}

class ChaosCampaign : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new core::PipelineConfig(core::PipelineConfig::tiny());
    campaign_ = new core::Campaign(*config_);
    pair_ = new core::PairDataset(campaign_->generate(1));

    dir_ = (std::filesystem::temp_directory_path() /
            ("is2_chaos_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
    shards_ = new core::ShardSet();
    core::write_shards(pair_->granule, 0, /*chunks_per_beam=*/2, dir_, *shards_);
    index_ = new serve::ShardIndex(serve::ShardIndex::build(shards_->files));

    const auto* files = index_->find(pair_->granule.id, BeamId::Gt1r);
    ASSERT_NE(files, nullptr);
    const auto merged = serve::ShardIndex::load_merged(*files);
    const auto pre = atl03::preprocess_beam(merged, merged.beams[0], campaign_->corrections(),
                                            config_->preprocess);
    auto segments = resample::resample(pre, config_->segmenter);
    const resample::FirstPhotonBiasCorrector fpb(config_->instrument.dead_time_m,
                                                 config_->instrument.strong_channels);
    fpb.apply(segments);
    const auto features = resample::to_features(segments, resample::rolling_baseline(segments));
    scaler_ = new resample::FeatureScaler(resample::FeatureScaler::fit(features));
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    delete scaler_;
    delete index_;
    delete shards_;
    delete pair_;
    delete campaign_;
    delete config_;
    scaler_ = nullptr;
    index_ = nullptr;
    shards_ = nullptr;
    pair_ = nullptr;
    campaign_ = nullptr;
    config_ = nullptr;
  }

  static nn::Sequential make_model() {
    util::Rng rng(99);
    return nn::make_lstm_model(config_->sequence_window, resample::FeatureRow::kDim, rng);
  }

  static std::unique_ptr<Cluster> make_cluster(ClusterConfig cfg) {
    return std::make_unique<Cluster>(cfg, *config_, campaign_->corrections(), *index_,
                                     &ChaosCampaign::make_model, *scaler_);
  }

  static std::unique_ptr<serve::GranuleService> make_single_node(serve::ServiceConfig cfg) {
    return std::make_unique<serve::GranuleService>(cfg, *config_, campaign_->corrections(),
                                                   *index_, &ChaosCampaign::make_model,
                                                   *scaler_);
  }

  static ProductRequest request(BeamId beam) {
    ProductRequest r;
    r.granule_id = pair_->granule.id;
    r.beam = beam;
    return r;
  }

  static core::PipelineConfig* config_;
  static core::Campaign* campaign_;
  static core::PairDataset* pair_;
  static core::ShardSet* shards_;
  static serve::ShardIndex* index_;
  static resample::FeatureScaler* scaler_;
  static std::string dir_;
};

core::PipelineConfig* ChaosCampaign::config_ = nullptr;
core::Campaign* ChaosCampaign::campaign_ = nullptr;
core::PairDataset* ChaosCampaign::pair_ = nullptr;
core::ShardSet* ChaosCampaign::shards_ = nullptr;
serve::ShardIndex* ChaosCampaign::index_ = nullptr;
resample::FeatureScaler* ChaosCampaign::scaler_ = nullptr;
std::string ChaosCampaign::dir_;

TEST_F(ChaosCampaign, QueueDeadlineExpiryIsDistinctFromShedding) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  auto service = make_single_node(cfg);

  // One cold build occupies the only worker; a second request with a
  // sub-millisecond budget queues behind it and must be dropped at dequeue
  // with DeadlineError — a budget failure, not a capacity (Shed) failure.
  auto slow = service->submit(request(BeamId::Gt1r));
  // Same (default) class as the in-flight build: the weighted dequeue is
  // FIFO within a class, so the doomed request must wait out the build.
  ProductRequest doomed = request(BeamId::Gt2r);
  doomed.deadline_ms = 0.5;
  auto expired = service->submit(doomed);
  EXPECT_THROW(expired.get(), serve::DeadlineError);
  ASSERT_NE(slow.get().product, nullptr);

  const auto stats = service->metrics().scheduler;
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.deadline_expired_by_class[static_cast<std::size_t>(serve::Priority::batch)],
            1u);
  // A deadline drop still completes its job slot: the dispatched==completed
  // invariant (what shutdown drains on) must hold afterwards.
  EXPECT_EQ(stats.dispatched, stats.completed);

  // The same request WITH budget to spare is served normally.
  ProductRequest relaxed = request(BeamId::Gt2r);
  relaxed.deadline_ms = 60'000.0;
  ASSERT_NE(service->submit(relaxed).get().product, nullptr);
  EXPECT_EQ(service->metrics().scheduler.deadline_expired, 1u);
}

TEST_F(ChaosCampaign, WritebackRetriesATransientDiskFault) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.disk_cache_dir = dir_ + "/wb_transient";
  auto service = make_single_node(cfg);

  util::fault::Plan plan(21);
  SiteConfig once;
  once.fail_nth = 1;
  plan.on("disk.write", once);

  std::mutex mu;
  std::vector<std::string> lines;
  util::set_log_sink([&](util::LogLevel, std::string_view line) {
    std::lock_guard lock(mu);
    lines.emplace_back(line);
  });
  {
    util::fault::Armed armed(plan);
    ASSERT_NE(service->submit(request(BeamId::Gt1r)).get().product, nullptr);
    service->wait_disk_writebacks();
  }
  util::set_log_sink(nullptr);

  // First attempt threw, the backoff'd retry published: the disk tier holds
  // the product, nothing was logged, no failure recorded.
  EXPECT_EQ(plan.failures("disk.write"), 1u);
  ASSERT_NE(service->disk_cache(), nullptr);
  EXPECT_EQ(service->disk_cache()->stats().writes, 1u);
  EXPECT_EQ(service->metrics().writeback_failures, 0u);
  EXPECT_TRUE(lines.empty());
}

TEST_F(ChaosCampaign, WritebackExhaustionWarnsWithTheKey) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.disk_cache_dir = dir_ + "/wb_exhausted";
  auto service = make_single_node(cfg);

  util::fault::Plan plan(22);
  SiteConfig always;
  always.fail_every = 1;
  plan.on("disk.write", always);

  std::mutex mu;
  std::vector<std::string> lines;
  util::set_log_sink([&](util::LogLevel level, std::string_view line) {
    std::lock_guard lock(mu);
    if (level == util::LogLevel::Warn) lines.emplace_back(line);
  });
  {
    util::fault::Armed armed(plan);
    ASSERT_NE(service->submit(request(BeamId::Gt1r)).get().product, nullptr);
    service->wait_disk_writebacks();
  }
  util::set_log_sink(nullptr);

  // Every attempt failed: the product is served (write-back is async and
  // best-effort) but the tier stays empty, the failure is counted, and the
  // warning names the key an operator would need.
  EXPECT_GE(plan.failures("disk.write"), 3u);  // all bounded attempts
  EXPECT_EQ(service->disk_cache()->stats().writes, 0u);
  EXPECT_EQ(service->metrics().writeback_failures, 1u);
  bool named = false;
  {
    std::lock_guard lock(mu);
    for (const auto& line : lines)
      if (line.find("write-back failed") != std::string::npos &&
          line.find(pair_->granule.id) != std::string::npos)
        named = true;
  }
  EXPECT_TRUE(named);
}

TEST_F(ChaosCampaign, ConsecutiveSubmitFaultsQuarantineWithLiveFailover) {
  // submit and try_submit share one failover loop; both must fail over,
  // feed the failure ledger and quarantine alike.
  for (const bool use_try_submit : {false, true}) {
    SCOPED_TRACE(use_try_submit ? "try_submit" : "submit");
    ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.replication_factor = 2;
    cfg.quarantine_after = 3;
    cfg.node.workers = 1;
    auto cluster = make_cluster(cfg);
    const auto serve = [&](const ProductRequest& req) {
      // value(): a shed (nullopt) fails the test with bad_optional_access.
      return use_try_submit ? cluster->try_submit(req).value().get()
                            : cluster->submit(req).get();
    };

    const ProductRequest r = request(BeamId::Gt1r);
    const std::uint32_t owner = cluster->owner_of(cluster->key_for(r));

    // A genuinely dead node fails every surface: submits AND peer probes.
    // (Failing only node.submit would let a successful peer.peek against the
    // owner reset its streak — a live probe is liveness evidence.)
    util::fault::Plan plan(5);
    SiteConfig die;
    die.instance = static_cast<int>(owner);
    die.fail_every = 1;
    plan.on("node.submit", die);
    plan.on("peer.peek", die);
    {
      util::fault::Armed armed(plan);
      // Every request hits the faulty owner, fails, and fails over to a
      // live replica — the client sees three served requests, zero errors.
      for (int i = 0; i < 3; ++i) ASSERT_NE(serve(r).product, nullptr) << "request " << i;

      // The third consecutive failure crossed the threshold: the owner is
      // out of the ring (so the rule stops matching) but not drained.
      EXPECT_TRUE(cluster->is_quarantined(owner));
      EXPECT_FALSE(cluster->is_live(owner));
      ASSERT_NE(serve(r).product, nullptr);  // routed around it
    }
    EXPECT_EQ(counter(*cluster, "is2_cluster_quarantine_total"), 1u);
    EXPECT_GE(counter(*cluster, "is2_cluster_node_failures_total"), 3u);

    // Revive rejoins; a full quarantine/revive cycle only ever increments
    // the transition counters (monotonic, no double counting on no-op
    // calls).
    cluster->revive_node(owner);
    EXPECT_TRUE(cluster->is_live(owner));
    cluster->revive_node(owner);  // no-op: already live
    cluster->quarantine_node(owner);
    cluster->quarantine_node(owner);  // no-op: already out
    cluster->revive_node(owner);
    EXPECT_EQ(counter(*cluster, "is2_cluster_quarantine_total"), 2u);
    EXPECT_EQ(counter(*cluster, "is2_cluster_revive_total"), 2u);
    EXPECT_EQ(cluster->live_count(), 3u);
  }
}

TEST_F(ChaosCampaign, QuarantineRereplicatesHotKeysAndReviveKeepsRamWarm) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.replication_factor = 2;
  cfg.hot_key_threshold = 2;
  cfg.node.workers = 1;
  auto cluster = make_cluster(cfg);

  const ProductRequest r = request(BeamId::Gt2r);
  GranuleProduct reference;
  {
    serve::ServiceConfig single;
    single.workers = 1;
    reference = *make_single_node(single)->submit(r).get().product;
  }

  // Build once, then cross the hot threshold so the key is (a) in the hot
  // slice of the popularity ledger and (b) promoted onto its replica set.
  const std::uint32_t owner = cluster->owner_of(cluster->key_for(r));
  for (int i = 0; i < 4; ++i) ASSERT_NE(cluster->submit(r).get().product, nullptr);
  auto windows_across_fleet = [&] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < cluster->num_nodes(); ++i)
      n += cluster->node(i).metrics().inference_windows;
    return n;
  };
  const std::uint64_t windows_before = windows_across_fleet();

  // Quarantine the owner: its RAM is intact, so the healing pass copies the
  // hot key to its new owner before any traffic can miss there.
  cluster->quarantine_node(owner);
  EXPECT_GE(counter(*cluster, "is2_cluster_rereplicated_keys_total"), 1u);

  const auto healed = cluster->submit(r).get();
  ASSERT_NE(healed.product, nullptr);
  EXPECT_TRUE(healed.from_cache);
  expect_bit_identical(*healed.product, reference);
  EXPECT_EQ(windows_across_fleet(), windows_before);  // healed, not rebuilt

  // Revive: the node kept its RAM through quarantine, so traffic routed
  // back to it fast-hits immediately — no cold restart.
  cluster->revive_node(owner);
  const auto back = cluster->submit(r).get();
  ASSERT_NE(back.product, nullptr);
  EXPECT_TRUE(back.from_cache);
  expect_bit_identical(*back.product, reference);
  EXPECT_EQ(windows_across_fleet(), windows_before);
}

TEST_F(ChaosCampaign, ReviveRestoresThePreQuarantineRingExactly) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.node.workers = 1;
  auto cluster = make_cluster(cfg);

  std::vector<ProductKey> keys;
  for (int i = 0; i < 200; ++i) {
    ProductKey k;
    k.granule_id = "synthetic_" + std::to_string(i);
    k.beam = BeamId::Gt1r;
    keys.push_back(k);
  }
  std::vector<std::uint32_t> before;
  for (const auto& k : keys) before.push_back(cluster->owner_of(k));

  // Quarantine moves only the quarantined node's ranges (minimal churn)...
  cluster->quarantine_node(2);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t now = cluster->owner_of(keys[i]);
    EXPECT_NE(now, 2u) << "key " << i << " routed to a quarantined node";
    if (now != before[i]) {
      ++moved;
      EXPECT_EQ(before[i], 2u) << "key " << i << " churned between healthy nodes";
    }
  }
  EXPECT_GT(moved, 0u);

  // ...and revive is its exact inverse: every key routes as if the node had
  // never flapped.
  cluster->revive_node(2);
  for (std::size_t i = 0; i < keys.size(); ++i)
    ASSERT_EQ(cluster->owner_of(keys[i]), before[i]) << "key " << i;
}

TEST_F(ChaosCampaign, HealthProbesSkipDeadNodesAndFeedTheQuarantineLedger) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.quarantine_after = 2;
  cfg.node.workers = 1;
  auto cluster = make_cluster(cfg);

  cluster->kill_node(0);
  cluster->quarantine_node(1);

  util::fault::Plan plan(9);
  SiteConfig w0, w1;
  w0.instance = 0;
  w0.fail_every = 1;
  w1.instance = 1;
  w1.fail_every = 1;
  plan.on("peer.peek", w0);
  plan.on("peer.peek", w1);
  util::fault::Armed armed(plan);

  // Only the one live node is probed: rules watching the dead and the
  // quarantined node never even see a hit.
  EXPECT_EQ(cluster->probe_health(), 1u);
  EXPECT_EQ(plan.hits("peer.peek"), 0u);

  // A probe that throws feeds the same consecutive-failure ledger as a
  // failed submit: two failing sweeps quarantine the last live node.
  SiteConfig w2;
  w2.instance = 2;
  w2.fail_every = 1;
  plan.on("peer.peek", w2);
  EXPECT_EQ(cluster->probe_health(), 0u);
  EXPECT_FALSE(cluster->is_quarantined(2));  // one strike, not two
  EXPECT_EQ(cluster->probe_health(), 0u);
  EXPECT_TRUE(cluster->is_quarantined(2));
  EXPECT_EQ(cluster->live_count(), 0u);  // fleet dark, reported — not crashed

  EXPECT_EQ(counter(*cluster, "is2_cluster_quarantine_total"), 2u);
  EXPECT_GE(counter(*cluster, "is2_cluster_node_failures_total"), 2u);
  // A killed node is terminal: revive only applies to quarantine.
  cluster->revive_node(0);
  EXPECT_FALSE(cluster->is_live(0));
  cluster->revive_node(2);
  EXPECT_TRUE(cluster->is_live(2));
}

TEST_F(ChaosCampaign, ImbalanceAveragesOverLiveNodesOnly) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.node.workers = 1;
  auto cluster = make_cluster(cfg);
  EXPECT_DOUBLE_EQ(cluster->imbalance(), 0.0);  // nothing routed yet

  // Two requests owned by each node, for granules the shard index does not
  // hold: each is routed and counted, then fails fast on its node (no shard
  // IO, no inference).
  std::array<std::vector<ProductRequest>, 3> owned;
  const auto short_of_two = [](const auto& v) { return v.size() < 2; };
  for (int i = 0; std::any_of(owned.begin(), owned.end(), short_of_two); ++i) {
    ProductRequest r;
    r.granule_id = "unindexed_" + std::to_string(i);
    auto& mine = owned[cluster->owner_of(cluster->key_for(r))];
    if (mine.size() < 2) mine.push_back(r);
  }
  const auto route_to = [&](std::size_t node) {
    for (const ProductRequest& r : owned[node])
      EXPECT_THROW(cluster->submit(r).get(), std::runtime_error);
  };

  for (std::size_t node = 0; node < 3; ++node) route_to(node);
  EXPECT_DOUBLE_EQ(cluster->imbalance(), 1.0);  // 2/2/2: perfectly even
  route_to(0);
  EXPECT_DOUBLE_EQ(cluster->imbalance(), 1.5);  // 4/2/2: max 4 / mean 8/3

  // A dead node drops out of the denominator: its count must not flatter
  // (or damn) the survivors' balance.
  cluster->kill_node(1);
  EXPECT_DOUBLE_EQ(cluster->imbalance(), 4.0 / 3.0);  // 4/2 over the live two
}

}  // namespace
