// End-to-end tests for the distributed parameter-server training
// subsystem: ParamServer shards behind real NetServers on loopback,
// driven over TCP by raw CallFrame probes and by the DistTrainer. The core
// acceptance property mirrors the serving tests' parity bar: with one
// worker and synchronous pushes the distributed trajectory is BIT-EXACT vs
// the in-process ShardedTrainer, and with hogwild workers and pipelined
// pushes the final mean hinge lands within 2% of it.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/gradients.h"
#include "core/pkgm_model.h"
#include "core/sharded_trainer.h"
#include "core/trainer.h"
#include "dist/dist_trainer.h"
#include "dist/param_server.h"
#include "kg/synthetic_pkg.h"
#include "kg/triple_store.h"
#include "net/io_backend.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "tensor/simd/kernel_dispatch.h"
#include "util/string_util.h"

namespace pkgm::dist {
namespace {

using net::Frame;
using net::FrameType;
using net::ParamTable;
using net::PullSection;
using net::RowsSection;

core::PkgmModelOptions TestModelOptions() {
  core::PkgmModelOptions mo;
  mo.num_entities = 30;
  mo.num_relations = 4;
  mo.dim = 8;
  mo.seed = 77;
  return mo;
}

/// In-process shard cluster over real loopback TCP.
struct Cluster {
  std::vector<std::unique_ptr<ParamServer>> shards;
  std::vector<std::unique_ptr<net::NetServer>> servers;
  std::vector<std::string> endpoints;
  std::vector<uint16_t> ports;

  /// `io_backend` pins the shards' I/O backend ("" = the runtime probe).
  void Start(uint32_t num_shards, ParamServerOptions base,
             const std::string& io_backend = "") {
    for (uint32_t s = 0; s < num_shards; ++s) {
      ParamServerOptions opt = base;
      opt.shard_index = s;
      opt.num_shards = num_shards;
      shards.push_back(std::make_unique<ParamServer>(opt));
      net::NetServerOptions nopt;
      nopt.bind_address = "127.0.0.1";
      nopt.io_backend = io_backend;
      servers.push_back(
          std::make_unique<net::NetServer>(shards.back().get(), nopt));
      ASSERT_TRUE(servers.back()->Start().ok());
      ports.push_back(servers.back()->port());
      endpoints.push_back(StrFormat("127.0.0.1:%u", servers.back()->port()));
    }
  }

  void Stop() {
    // Parked barrier responds count as outstanding frames: abort before
    // the drain waits on them.
    for (auto& shard : shards) shard->AbortBarriers();
    for (auto& server : servers) server->Stop();
  }

  ~Cluster() { Stop(); }
};

/// One round-tripped CallFrame; the correlation id rides at header
/// offset 8 of the encoded frame.
StatusOr<Frame> Call(net::NetClient* client, std::string frame_bytes) {
  uint64_t cid = 0;
  std::memcpy(&cid, frame_bytes.data() + 8, sizeof(cid));
  return client->CallFrame(cid, std::move(frame_bytes)).get();
}

std::unique_ptr<net::NetClient> MustConnect(uint16_t port,
                                            net::NetClientOptions copt = {}) {
  auto client = net::NetClient::Connect("127.0.0.1", port, copt);
  EXPECT_TRUE(client.ok());
  return std::move(client.value());
}

/// 20 triples over the 30-entity test model: heads 0..19, tails 20..29.
kg::TripleStore ChainKg() {
  kg::TripleStore store;
  for (uint32_t i = 0; i < 20; ++i) {
    store.Add(i, i % 4, 20 + (i * 7) % 10);
  }
  return store;
}

TEST(ParamServerTest, ShardInfoAnnouncesConfiguration) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  base.optimizer = core::OptimizerKind::kAdam;
  base.learning_rate = 1e-4f;
  Cluster cluster;
  cluster.Start(2, base);

  auto client = MustConnect(cluster.ports[1]);
  const uint64_t cid = client->NextCorrelationId();
  StatusOr<Frame> reply =
      Call(client.get(), net::EncodeControl(FrameType::kShardInfo, cid));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kShardInfoReply);

  net::ShardInfo info;
  ASSERT_TRUE(net::DecodeShardInfoReply(reply->payload, &info).ok());
  EXPECT_EQ(info.shard_index, 1u);
  EXPECT_EQ(info.num_shards, 2u);
  EXPECT_EQ(info.num_entities, 30u);
  EXPECT_EQ(info.num_relations, 4u);
  EXPECT_EQ(info.dim, 8u);
  EXPECT_EQ(info.optimizer,
            static_cast<uint8_t>(core::OptimizerKind::kAdam));
  EXPECT_EQ(info.learning_rate, 1e-4f);
  EXPECT_EQ(info.model_seed, 77u);
}

TEST(ParamServerTest, PullReturnsModelBytesAndRejectsUnowned) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  Cluster cluster;
  cluster.Start(2, base);
  // Same options + seed => the shard's table bytes are reproducible
  // locally.
  core::PkgmModel local(TestModelOptions());

  auto client = MustConnect(cluster.ports[0]);
  std::vector<PullSection> sections(3);
  sections[0].table = ParamTable::kEntity;
  sections[0].ids = {0, 2, 28};
  sections[1].table = ParamTable::kRelation;
  sections[1].ids = {0, 2};
  sections[2].table = ParamTable::kTransfer;
  sections[2].ids = {2};
  uint64_t cid = client->NextCorrelationId();
  StatusOr<Frame> reply =
      Call(client.get(), net::EncodePullRows(cid, sections));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kRows);

  std::vector<RowsSection> rows;
  ASSERT_TRUE(net::DecodeRows(reply->payload, &rows).ok());
  ASSERT_EQ(rows.size(), 3u);
  const uint32_t dim = local.dim();
  for (size_t i = 0; i < rows[0].ids.size(); ++i) {
    EXPECT_EQ(std::memcmp(rows[0].values.data() + i * dim,
                          local.entity(rows[0].ids[i]),
                          dim * sizeof(float)),
              0);
  }
  for (size_t i = 0; i < rows[1].ids.size(); ++i) {
    EXPECT_EQ(std::memcmp(rows[1].values.data() + i * dim,
                          local.relation(rows[1].ids[i]),
                          dim * sizeof(float)),
              0);
  }
  EXPECT_EQ(rows[2].row_size, dim * dim);
  EXPECT_EQ(std::memcmp(rows[2].values.data(), local.transfer(2),
                        dim * dim * sizeof(float)),
            0);

  // Unowned (odd ids belong to shard 1) and out-of-range pulls refused.
  std::vector<PullSection> unowned(1);
  unowned[0].table = ParamTable::kEntity;
  unowned[0].ids = {1};
  cid = client->NextCorrelationId();
  EXPECT_FALSE(Call(client.get(), net::EncodePullRows(cid, unowned)).ok());
  std::vector<PullSection> oob(1);
  oob[0].table = ParamTable::kEntity;
  oob[0].ids = {30};
  cid = client->NextCorrelationId();
  EXPECT_FALSE(Call(client.get(), net::EncodePullRows(cid, oob)).ok());
}

TEST(ParamServerTest, PushAppliesSgdExactly) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  base.optimizer = core::OptimizerKind::kSgd;
  base.learning_rate = 0.1f;
  base.normalize_entities = false;  // isolate the axpy
  Cluster cluster;
  cluster.Start(2, base);
  core::PkgmModel expected(TestModelOptions());
  const uint32_t dim = expected.dim();
  const simd::KernelTable& kernels = simd::Active();

  core::GradArena arena;
  float* ge = arena.Entity(2, dim);
  for (uint32_t d = 0; d < dim; ++d) ge[d] = 0.5f * (d + 1);
  float* gr = arena.Relation(0, dim);
  for (uint32_t d = 0; d < dim; ++d) gr[d] = -0.25f * d;
  std::string blob;
  ASSERT_EQ(core::SerializeGradArena(arena, 0, 2, &blob), 2u);

  auto client = MustConnect(cluster.ports[0]);
  const float scale = 0.25f;
  uint64_t cid = client->NextCorrelationId();
  StatusOr<Frame> reply =
      Call(client.get(), net::EncodePushGrads(cid, scale, 0, blob));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kPushAck);
  uint32_t applied = 0;
  ASSERT_TRUE(net::DecodePushAck(reply->payload, &applied).ok());
  EXPECT_EQ(applied, 2u);

  // Replicate the server's arithmetic with the same dispatched kernel.
  const float alpha = -base.learning_rate * scale;
  kernels.axpy(dim, alpha, ge, expected.entity(2));
  kernels.axpy(dim, alpha, gr, expected.relation(0));

  std::vector<PullSection> sections(2);
  sections[0].table = ParamTable::kEntity;
  sections[0].ids = {2};
  sections[1].table = ParamTable::kRelation;
  sections[1].ids = {0};
  cid = client->NextCorrelationId();
  reply = Call(client.get(), net::EncodePullRows(cid, sections));
  ASSERT_TRUE(reply.ok());
  std::vector<RowsSection> rows;
  ASSERT_TRUE(net::DecodeRows(reply->payload, &rows).ok());
  EXPECT_EQ(std::memcmp(rows[0].values.data(), expected.entity(2),
                        dim * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(rows[1].values.data(), expected.relation(0),
                        dim * sizeof(float)),
            0);

  // A push with rows this shard does not own is refused all-or-nothing.
  std::string foreign_blob;
  core::GradArena foreign;
  foreign.Entity(3, dim)[0] = 1.0f;  // shard 1's row
  core::SerializeGradArena(foreign, &foreign_blob);
  cid = client->NextCorrelationId();
  EXPECT_FALSE(
      Call(client.get(), net::EncodePushGrads(cid, scale, 0, foreign_blob))
          .ok());
}

TEST(ParamServerTest, PushNormalizesEntities) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  base.optimizer = core::OptimizerKind::kSgd;
  base.learning_rate = 0.1f;
  base.normalize_entities = true;
  Cluster cluster;
  cluster.Start(1, base);
  core::PkgmModel expected(TestModelOptions());
  const uint32_t dim = expected.dim();

  core::GradArena arena;
  float* ge = arena.Entity(5, dim);
  for (uint32_t d = 0; d < dim; ++d) ge[d] = 2.0f;
  std::string blob;
  core::SerializeGradArena(arena, &blob);

  auto client = MustConnect(cluster.ports[0]);
  uint64_t cid = client->NextCorrelationId();
  ASSERT_TRUE(
      Call(client.get(), net::EncodePushGrads(cid, 1.0f, 0, blob)).ok());

  simd::Active().axpy(dim, -0.1f, ge, expected.entity(5));
  expected.NormalizeEntity(5);

  std::vector<PullSection> sections(1);
  sections[0].table = ParamTable::kEntity;
  sections[0].ids = {5};
  cid = client->NextCorrelationId();
  StatusOr<Frame> reply =
      Call(client.get(), net::EncodePullRows(cid, sections));
  ASSERT_TRUE(reply.ok());
  std::vector<RowsSection> rows;
  ASSERT_TRUE(net::DecodeRows(reply->payload, &rows).ok());
  EXPECT_EQ(std::memcmp(rows[0].values.data(), expected.entity(5),
                        dim * sizeof(float)),
            0);
}

TEST(ParamServerTest, PushAppliesAdamWithStepParity) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  base.optimizer = core::OptimizerKind::kAdam;
  base.learning_rate = 1e-3f;
  base.normalize_entities = false;
  Cluster cluster;
  cluster.Start(1, base);
  core::PkgmModel expected(TestModelOptions());
  const uint32_t dim = expected.dim();
  const simd::KernelTable& kernels = simd::Active();

  core::GradArena arena;
  float* ge = arena.Entity(3, dim);
  for (uint32_t d = 0; d < dim; ++d) ge[d] = 1.0f - 0.125f * d;
  std::string blob;
  core::SerializeGradArena(arena, &blob);

  auto client = MustConnect(cluster.ports[0]);
  const float scale = 0.5f;
  std::vector<float> m(dim, 0.0f), v(dim, 0.0f);
  for (uint32_t t = 1; t <= 2; ++t) {
    uint64_t cid = client->NextCorrelationId();
    ASSERT_TRUE(
        Call(client.get(), net::EncodePushGrads(cid, scale, 0, blob)).ok());
    // Replicate the server's bias-corrected step size exactly (same
    // float expression, same kernel).
    const float b1 = base.adam_beta1, b2 = base.adam_beta2;
    const float corr1 =
        1.0f - static_cast<float>(std::pow(b1, static_cast<double>(t)));
    const float corr2 =
        1.0f - static_cast<float>(std::pow(b2, static_cast<double>(t)));
    const float alpha = base.learning_rate * std::sqrt(corr2) / corr1;
    kernels.adam_row(dim, ge, scale, b1, b2, alpha, base.adam_epsilon,
                     expected.entity(3), m.data(), v.data());
  }
  EXPECT_EQ(cluster.shards[0]->step(), 2u);

  std::vector<PullSection> sections(1);
  sections[0].table = ParamTable::kEntity;
  sections[0].ids = {3};
  const uint64_t cid = client->NextCorrelationId();
  StatusOr<Frame> reply =
      Call(client.get(), net::EncodePullRows(cid, sections));
  ASSERT_TRUE(reply.ok());
  std::vector<RowsSection> rows;
  ASSERT_TRUE(net::DecodeRows(reply->payload, &rows).ok());
  EXPECT_EQ(std::memcmp(rows[0].values.data(), expected.entity(3),
                        dim * sizeof(float)),
            0);
}

TEST(ParamServerTest, BarrierReleasesMismatchesAndAborts) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  Cluster cluster;
  cluster.Start(1, base);

  auto c1 = MustConnect(cluster.ports[0]);
  auto c2 = MustConnect(cluster.ports[0]);

  // Held until the second arrival, then both release with the count.
  uint64_t cid1 = c1->NextCorrelationId();
  auto f1 = c1->CallFrame(cid1, net::EncodeBarrier(cid1, 0, 2));
  EXPECT_EQ(f1.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  uint64_t cid2 = c2->NextCorrelationId();
  auto f2 = c2->CallFrame(cid2, net::EncodeBarrier(cid2, 0, 2));
  for (auto* f : {&f1, &f2}) {
    StatusOr<Frame> reply = f->get();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->type, FrameType::kBarrierReply);
    uint32_t epoch = 1, arrived = 0;
    ASSERT_TRUE(
        net::DecodeBarrierReply(reply->payload, &epoch, &arrived).ok());
    EXPECT_EQ(epoch, 0u);
    EXPECT_EQ(arrived, 2u);
  }

  // A worker announcing a different expected count for the same epoch is
  // refused; the parked waiter stays parked and a correct arrival still
  // releases it.
  cid1 = c1->NextCorrelationId();
  f1 = c1->CallFrame(cid1, net::EncodeBarrier(cid1, 1, 2));
  EXPECT_EQ(f1.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  cid2 = c2->NextCorrelationId();
  EXPECT_FALSE(
      c2->CallFrame(cid2, net::EncodeBarrier(cid2, 1, 3)).get().ok());
  cid2 = c2->NextCorrelationId();
  EXPECT_TRUE(
      c2->CallFrame(cid2, net::EncodeBarrier(cid2, 1, 2)).get().ok());
  EXPECT_TRUE(f1.get().ok());

  // A zero worker count is nonsense and refused outright.
  cid1 = c1->NextCorrelationId();
  EXPECT_FALSE(
      c1->CallFrame(cid1, net::EncodeBarrier(cid1, 5, 0)).get().ok());

  // AbortBarriers (the shutdown path) fails parked waiters promptly.
  cid1 = c1->NextCorrelationId();
  f1 = c1->CallFrame(cid1, net::EncodeBarrier(cid1, 2, 2));
  EXPECT_EQ(f1.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  cluster.shards[0]->AbortBarriers();
  EXPECT_FALSE(f1.get().ok());
}

TEST(DistTrainerTest, ConnectRejectsMisorderedEndpoints) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  base.learning_rate = 0.05f;
  Cluster cluster;
  cluster.Start(2, base);
  kg::TripleStore store = ChainKg();

  DistTrainerOptions dopt;
  dopt.shard_endpoints = {cluster.endpoints[1], cluster.endpoints[0]};
  dopt.learning_rate = 0.05f;
  DistTrainer trainer(&store, dopt);
  EXPECT_FALSE(trainer.Connect().ok());

  // Learning-rate disagreement with the shards is refused too.
  DistTrainerOptions bad_lr;
  bad_lr.shard_endpoints = cluster.endpoints;
  bad_lr.learning_rate = 0.02f;
  DistTrainer trainer2(&store, bad_lr);
  EXPECT_FALSE(trainer2.Connect().ok());
}

TEST(DistTrainerTest, OneWorkerSyncPushBitExactVsShardedTrainer) {
  kg::TripleStore store = ChainKg();
  const uint32_t epochs = 3;

  // In-process reference: same seed, one worker.
  core::PkgmModel ref(TestModelOptions());
  core::ShardedTrainerOptions sopt;
  sopt.num_workers = 1;
  sopt.batch_size = 8;
  sopt.learning_rate = 0.05f;
  sopt.seed = 123;
  core::ShardedTrainer reference(&ref, &store, sopt);
  std::vector<core::EpochStats> ref_stats;
  for (uint32_t e = 0; e < epochs; ++e) {
    ref_stats.push_back(reference.RunEpoch());
  }

  // Distributed: 2 shards, 1 worker, fully synchronous pushes.
  ParamServerOptions base;
  base.model = TestModelOptions();
  base.optimizer = core::OptimizerKind::kSgd;
  base.learning_rate = 0.05f;
  Cluster cluster;
  cluster.Start(2, base);
  DistTrainerOptions dopt;
  dopt.shard_endpoints = cluster.endpoints;
  dopt.num_workers = 1;
  dopt.batch_size = 8;
  dopt.learning_rate = 0.05f;
  dopt.seed = 123;
  dopt.max_inflight_pushes = 0;
  DistTrainer trainer(&store, dopt);
  ASSERT_TRUE(trainer.Connect().ok());
  for (uint32_t e = 0; e < epochs; ++e) {
    StatusOr<core::EpochStats> stats = trainer.RunEpoch();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    // Identical shuffle, identical negatives, identical batch-slot stat
    // merge: the telemetry must agree to the last bit.
    EXPECT_EQ(stats->mean_hinge, ref_stats[e].mean_hinge) << "epoch " << e;
    EXPECT_EQ(stats->active_pairs, ref_stats[e].active_pairs);
    EXPECT_EQ(stats->total_pairs, ref_stats[e].total_pairs);
  }
  ASSERT_TRUE(trainer.PullFullModel().ok());

  // The refreshed replica is bit-identical to the in-process model —
  // every table, every row.
  core::PkgmModel* replica = trainer.replica();
  for (uint32_t e = 0; e < ref.num_entities(); ++e) {
    ASSERT_EQ(std::memcmp(replica->entity(e), ref.entity(e),
                          ref.dim() * sizeof(float)),
              0)
        << "entity " << e;
  }
  for (uint32_t r = 0; r < ref.num_relations(); ++r) {
    ASSERT_EQ(std::memcmp(replica->relation(r), ref.relation(r),
                          ref.dim() * sizeof(float)),
              0)
        << "relation " << r;
    ASSERT_EQ(std::memcmp(replica->transfer(r), ref.transfer(r),
                          ref.dim() * ref.dim() * sizeof(float)),
              0)
        << "transfer " << r;
  }
  // And the comparable eval metric agrees exactly.
  core::TrainerOptions topt;
  topt.optimizer = core::OptimizerKind::kSgd;
  topt.seed = dopt.seed;
  core::Trainer evaluator(&ref, &store, topt);
  EXPECT_EQ(trainer.EvaluateMeanHinge(),
            evaluator.EvaluateMeanHinge(store.triples()));
}

TEST(DistTrainerTest, TwoWorkersTwoShardsHingeParity) {
  // A real (if small) synthetic PKG so hogwild noise averages out enough
  // for the 2% acceptance bound to be a meaningful assertion.
  kg::SyntheticPkgOptions pkg_opt;
  pkg_opt.num_categories = 4;
  pkg_opt.items_per_category = 60;
  pkg_opt.properties_per_category = 6;
  pkg_opt.shared_property_pool = 8;
  pkg_opt.values_per_property = 12;
  pkg_opt.products_per_category = 10;
  pkg_opt.noise_properties = 4;
  kg::SyntheticPkg pkg = kg::SyntheticPkgGenerator(pkg_opt).Generate();

  core::PkgmModelOptions mopt;
  mopt.num_entities = pkg.entities.size();
  mopt.num_relations = pkg.relations.size();
  mopt.dim = 8;
  mopt.seed = 2021;
  const uint32_t epochs = 3;

  core::PkgmModel ref(mopt);
  core::ShardedTrainerOptions sopt;
  sopt.num_workers = 2;
  sopt.batch_size = 64;
  sopt.learning_rate = 0.05f;
  sopt.seed = 2021;
  core::ShardedTrainer reference(&ref, &pkg.observed, sopt);
  double ref_hinge = 0.0;
  for (uint32_t e = 0; e < epochs; ++e) {
    ref_hinge = reference.RunEpoch().mean_hinge;
  }

  ParamServerOptions base;
  base.model = mopt;
  base.optimizer = core::OptimizerKind::kSgd;
  base.learning_rate = 0.05f;
  Cluster cluster;
  cluster.Start(2, base);
  DistTrainerOptions dopt;
  dopt.shard_endpoints = cluster.endpoints;
  dopt.num_workers = 2;
  dopt.batch_size = 64;
  dopt.learning_rate = 0.05f;
  dopt.seed = 2021;
  dopt.max_inflight_pushes = 4;
  DistTrainer trainer(&pkg.observed, dopt);
  ASSERT_TRUE(trainer.Connect().ok());
  double dist_hinge = 0.0;
  for (uint32_t e = 0; e < epochs; ++e) {
    StatusOr<core::EpochStats> stats = trainer.RunEpoch();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    dist_hinge = stats->mean_hinge;
  }
  EXPECT_GT(trainer.pulls(), 0u);
  EXPECT_GT(trainer.pushes(), 0u);

  // Acceptance bound: within 2% of the in-process trainer at the same
  // seed budget.
  ASSERT_GT(ref_hinge, 0.0);
  EXPECT_NEAR(dist_hinge / ref_hinge, 1.0, 0.02)
      << "dist " << dist_hinge << " vs ref " << ref_hinge;
}

// ---------------------------------------------------------------------------
// Round-trip latency across I/O backends
// ---------------------------------------------------------------------------

/// Backend matrix: the parameter ("epoll" / "uring") pins the shard's and
/// the client's I/O backend; the uring leg skips where the kernel has no
/// io_uring.
class ParamServerBackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "uring" && !net::UringAvailable()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel";
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, ParamServerBackendTest,
                         ::testing::Values("epoll", "uring"));

struct RoundTripRun {
  double wall_ms = 0.0;
  /// The shard's StatsJson after the run.
  std::string stats_json;
  uint64_t coalesce_timeouts = 0;
};

/// `round_trips` sequential round trips, alternating PushGrads and
/// PullRows of 512 entity rows x dim 64 (128 KiB frames), on one
/// connection to a one-shard cluster whose server and client run on
/// `backend`.
RoundTripRun SequentialRoundTrips(const std::string& backend,
                                  int round_trips) {
  constexpr uint32_t kRows = 512;
  constexpr uint32_t kDim = 64;
  ParamServerOptions base;
  base.model.num_entities = kRows;
  base.model.num_relations = 4;
  base.model.dim = kDim;
  base.model.seed = 77;
  base.optimizer = core::OptimizerKind::kSgd;
  Cluster cluster;
  cluster.Start(1, base, backend);
  net::NetClientOptions copt;
  copt.io_backend = backend;
  auto client = MustConnect(cluster.ports[0], copt);

  core::GradArena arena;  // zero gradients: the push moves no parameter
  for (uint32_t id = 0; id < kRows; ++id) arena.Entity(id, kDim);
  std::string blob;
  core::SerializeGradArena(arena, &blob);
  std::vector<PullSection> pull(1);
  pull[0].table = ParamTable::kEntity;
  for (uint32_t id = 0; id < kRows; ++id) pull[0].ids.push_back(id);

  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < round_trips; ++r) {
    const uint64_t cid = client->NextCorrelationId();
    if (r % 2 == 0) {
      StatusOr<Frame> ack =
          Call(client.get(), net::EncodePushGrads(cid, 1.0f, 0, blob));
      EXPECT_TRUE(ack.ok() && ack->type == FrameType::kPushAck);
    } else {
      StatusOr<Frame> rows =
          Call(client.get(), net::EncodePullRows(cid, pull));
      EXPECT_TRUE(rows.ok() && rows->type == FrameType::kRows);
      EXPECT_GE(rows.ok() ? rows->payload.size() : 0, kRows * kDim * 4);
    }
  }
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - start;
  RoundTripRun run;
  run.wall_ms = wall.count();
  run.stats_json = cluster.servers[0]->StatsJson();
  run.coalesce_timeouts =
      cluster.servers[0]->net_counters().io_coalesce_timeouts;
  return run;
}

// A request/response connection leaves the loop little to batch: the peer
// is blocked on the reply. Completion coalescing may cost such a round
// trip at most one moderation window (200 us, so 20 ms over 100 round
// trips), never a millisecond-scale timeout: the backend under test stays
// within 2x + 20 ms of epoll measured alongside it. Expired windows are
// counted in the shard's stats; epoll never coalesces and reports 0.
TEST_P(ParamServerBackendTest, SequentialLargeRoundTripsDoNotStall) {
  constexpr int kRoundTrips = 100;
  const RoundTripRun epoll = SequentialRoundTrips("epoll", kRoundTrips);
  const RoundTripRun run = SequentialRoundTrips(GetParam(), kRoundTrips);
  EXPECT_LE(run.wall_ms, 2.0 * epoll.wall_ms + 20.0)
      << GetParam() << " " << run.wall_ms << " ms vs epoll " << epoll.wall_ms
      << " ms for " << kRoundTrips << " round trips";
  EXPECT_EQ(epoll.coalesce_timeouts, 0u);
  EXPECT_NE(run.stats_json.find("\"io_coalesce_timeouts\":"),
            std::string::npos)
      << run.stats_json;
}

}  // namespace
}  // namespace pkgm::dist
