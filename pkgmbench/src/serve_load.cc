// The serving half's load generator and output checks.
//
// One process drives a running server over loopback: a Poisson open-loop
// phase timed from each request's intended send time, then a closed-loop
// phase with a fixed number of requests outstanding per connection for the
// peak completion rate. Every reply is checked as it arrives against the
// benchmark's own expectations (see checks.h). With --trace 1 the open loop
// alternates 50 ms untraced and traced windows (traced requests keep a
// client-side span in memory, written to trace.jsonl at the end; the p50
// gap between the two kinds of window is the tracing overhead), followed
// by in-process timings of the layers under the serving path.
#include <sys/prctl.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench_util.h"
#include "checks.h"
#include "core/service.h"
#include "infer/engine.h"
#include "infer/pipeline.h"
#include "infer/registry.h"
#include "kg/synthetic_pkg.h"
#include "serve_common.h"
#include "store/mmap_embedding_store.h"
#include "tensor/simd/kernel_dispatch.h"
#include "wire_client.h"

namespace pkgmbench {
namespace {

// The open loop's offered rate (requests/s), moderate for the server.
constexpr double kOpenLoopRate = 1500.0;
// Load time per server instance: untraced, 35% open loop then 60% closed
// loop (three 0.5 s windows of the peak rate); traced, 80% open loop.
constexpr double kServeSeconds = 3.0;
// Load connections (a control connection for Ping/Stats comes on top) and
// requests kept in flight per connection by the closed loop.
constexpr size_t kConnections = 2;
constexpr size_t kOutstandingPerConn = 16;
// The open loop keeps at most this many requests in flight, half the
// server's admission queue (serve::KnowledgeServerOptions::queue_capacity,
// 256). After the host stalls the generator or the server, the overdue
// requests then go out as replies make room instead of in one burst that
// the admission control would shed. Each is still timed from its intended
// send time, so the stall shows in the latency.
constexpr int64_t kMaxOpenInFlight = 128;
constexpr size_t kRing = 1u << 18;
// Hot keys (--keys hot): lookup, recommend and classify items are drawn
// Zipf(kZipfExponent) over kHotItems items, fewer than the daemon's 250
// vector-cache entries; cold keys are uniform over the whole catalog.
constexpr uint32_t kHotItems = 200;
constexpr double kZipfExponent = 1.0;

/// Per-item facts the checks need, derived by the benchmark itself from the
/// regenerated synthetic PKG.
struct Catalog {
  std::vector<uint32_t> entity;    // item -> entity id
  std::vector<uint32_t> category;  // item -> category
  std::vector<uint32_t> product;   // item -> product
  std::vector<std::vector<uint32_t>> key_relations;
  std::vector<std::vector<double>> expected;  // item -> condensed vector
};

/// Top-k most frequent property relations per category over the observed
/// triples of its items (ties by relation id), the paper's §III-A1 rule.
std::vector<std::vector<uint32_t>> DeriveKeyRelations(
    const pkgm::kg::SyntheticPkg& pkg, uint32_t k) {
  std::unordered_set<uint32_t> properties(pkg.property_relations.begin(),
                                          pkg.property_relations.end());
  std::unordered_map<uint32_t, uint32_t> category_of;
  for (const auto& item : pkg.items) category_of[item.entity] = item.category;
  std::vector<std::unordered_map<uint32_t, std::unordered_set<uint32_t>>>
      holders(pkg.num_categories);  // category -> relation -> items
  for (const auto& t : pkg.observed.triples()) {
    auto it = category_of.find(t.head);
    if (it == category_of.end() || properties.count(t.relation) == 0) continue;
    holders[it->second][t.relation].insert(t.head);
  }
  std::vector<std::vector<uint32_t>> out(pkg.num_categories);
  for (uint32_t c = 0; c < pkg.num_categories; ++c) {
    std::vector<std::pair<size_t, uint32_t>> counts;
    for (const auto& [r, items] : holders[c]) counts.push_back({items.size(), r});
    std::sort(counts.begin(), counts.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (size_t i = 0; i < std::min<size_t>(k, counts.size()); ++i) {
      out[c].push_back(counts[i].second);
    }
  }
  return out;
}

/// The hot-key set: kHotItems items of the catalog in a seeded random
/// order, the first being the most often drawn.
std::vector<uint32_t> HotItems(size_t catalog, uint64_t seed) {
  std::vector<uint32_t> items(catalog);
  for (uint32_t i = 0; i < catalog; ++i) items[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(items.begin(), items.end(), rng);
  items.resize(std::min<size_t>(kHotItems, catalog));
  return items;
}

/// Draws the workload's request stream from the seed; keys are uniform over
/// the catalog, or Zipf over `hot` when it is not empty.
class RequestStream {
 public:
  RequestStream(const Catalog& cat, uint32_t num_users, uint32_t num_classes,
                std::vector<uint32_t> hot, uint64_t seed)
      : cat_(cat), num_users_(num_users), num_classes_(num_classes),
        hot_(std::move(hot)), rng_(seed) {
    const size_t n = cat.entity.size();
    for (uint32_t i = 0; i < n; ++i) {
      if (cat.category[i] == 0) align_pool_.push_back(i);
    }
    std::vector<double> weights;
    for (size_t rank = 1; rank <= hot_.size(); ++rank) {
      weights.push_back(1.0 / std::pow(static_cast<double>(rank), kZipfExponent));
    }
    zipf_ = std::discrete_distribution<uint32_t>(weights.begin(), weights.end());
  }

  Request Next() {
    Request r;
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const uint32_t n = static_cast<uint32_t>(cat_.entity.size());
    // 40% lookups, 20% each of recommend, classify and align.
    const double x = u(rng_);
    r.item = hot_.empty() ? static_cast<uint32_t>(rng_() % n) : hot_[zipf_(rng_)];
    if (x < 0.4) {
      r.kind = kLookup;
    } else if (x < 0.6) {
      r.kind = kRecommendKind;
      r.user = static_cast<uint32_t>(rng_() % num_users_);
    } else if (x < 0.8) {
      r.kind = kClassifyKind;
      r.top_k = num_classes_;
    } else {
      // A category-0 pair (the aligner's training category): half of the
      // pairs are two listings of one product, half two different products.
      r.kind = kAlignKind;
      r.item = align_pool_[rng_() % align_pool_.size()];
      const bool same = (rng_() & 1) != 0;
      std::vector<uint32_t> cands;
      for (uint32_t b : align_pool_) {
        if (b != r.item &&
            (cat_.product[b] == cat_.product[r.item]) == same) {
          cands.push_back(b);
        }
      }
      if (cands.empty()) cands.push_back(r.item == align_pool_[0]
                                             ? align_pool_[1]
                                             : align_pool_[0]);
      r.item_b = cands[rng_() % cands.size()];
    }
    return r;
  }

 private:
  const Catalog& cat_;
  uint32_t num_users_, num_classes_;
  std::vector<uint32_t> hot_;
  std::mt19937_64 rng_;
  std::discrete_distribution<uint32_t> zipf_;
  std::vector<uint32_t> align_pool_;
};

enum Phase : uint8_t { kWarmup, kOpen, kPeak };

struct Slot {
  Request req;
  Phase phase = kWarmup;
  uint32_t index = 0;  // position within its phase
  Clock::time_point intended;
};

/// Results of the open-loop phases, one entry per request.
struct OpenRecord {
  float latency_us = NAN;
  uint8_t kind = 0;
  bool cache_hit = false;
  bool traced = false;
  // Intended send time, microseconds after the phase start; for traced
  // requests also the span's send and reply times.
  double start_us = 0.0, sent_us = 0.0, end_us = 0.0;
};

class LoadRunner {
 public:
  LoadRunner(const Catalog& cat, uint32_t num_classes)
      : cat_(cat), num_classes_(num_classes), ring_(kRing) {}

  bool Connect(uint16_t port) {
    for (size_t i = 0; i < kConnections; ++i) {
      conns_.push_back(std::make_unique<WireConn>());
      send_mu_.push_back(std::make_unique<std::mutex>());
      if (!conns_.back()->Connect(port)) return false;
    }
    for (size_t i = 0; i < kConnections; ++i) {
      readers_.emplace_back([this, i] { ReadLoop(i); });
    }
    return true;
  }

  void Stop() {
    for (auto& c : conns_) c->Shutdown();
    for (auto& t : readers_) t.join();
    readers_.clear();
  }

  /// Sends `req` on connection `conn` as part of `phase`.
  bool Send(size_t conn, const Request& req, Phase phase, uint32_t index,
            Clock::time_point intended) {
    const uint64_t id = next_id_.fetch_add(1);
    Slot& s = ring_[id & (kRing - 1)];
    s.req = req;
    s.phase = phase;
    s.index = index;
    s.intended = intended;
    attempted_.fetch_add(1);
    outstanding_.fetch_add(1);
    std::lock_guard<std::mutex> lock(*send_mu_[conn]);
    return conns_[conn]->Send(EncodeRequest(id, req));
  }

  /// Waits until every sent request has a reply (or `timeout_s` passes).
  bool Drain(double timeout_s) {
    const auto t0 = Clock::now();
    while (outstanding_.load() > 0) {
      if (SecondsSince(t0) > timeout_s) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  /// Closed loop: `count` requests, kOutstandingPerConn in flight per
  /// connection, the next one sent as each reply lands.
  void ClosedLoop(RequestStream* stream, Phase phase, double seconds,
                  uint64_t max_requests) {
    {
      std::lock_guard<std::mutex> lock(stream_mu_);
      closed_stream_ = stream;
      closed_phase_ = phase;
      closed_budget_ = max_requests;
    }
    closed_exhausted_.store(false);
    closed_completed_.store(0);
    closed_buckets_ = std::vector<std::atomic<uint64_t>>(
        static_cast<size_t>(seconds / kBucketSeconds) + 2);
    const auto t0 = Clock::now();
    closed_start_ = t0;
    closed_running_.store(true);
    for (size_t c = 0; c < kConnections; ++c) {
      for (size_t k = 0; k < kOutstandingPerConn; ++k) SendClosed(c);
    }
    while (SecondsSince(t0) < seconds) {
      if (closed_exhausted_.load()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    closed_seconds_ = SecondsSince(t0);
    closed_running_.store(false);
    closed_done_in_window_ = closed_completed_.load();
    Drain(10.0);
  }

  /// Completion rate of each whole `window_s` window of the last closed
  /// loop.
  std::vector<double> WindowRates(double window_s) const {
    const size_t per = static_cast<size_t>(window_s / kBucketSeconds + 0.5);
    const size_t full = static_cast<size_t>(closed_seconds_ / kBucketSeconds);
    std::vector<double> rates;
    for (size_t b = 0; b + per <= full; b += per) {
      uint64_t n = 0;
      for (size_t i = b; i < b + per; ++i) n += closed_buckets_[i].load();
      rates.push_back(static_cast<double>(n) / window_s);
    }
    return rates;
  }

  /// Poisson open loop at `rate` for `seconds`, recorded into `records`;
  /// with `trace`, requests due in odd 50 ms windows carry spans.
  void OpenLoop(RequestStream* stream, double rate, double seconds,
                uint64_t seed, bool trace, std::vector<OpenRecord>* records,
                std::vector<double>* lateness_us) {
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rate);
    const size_t n = static_cast<size_t>(rate * seconds);
    records->assign(n, OpenRecord{});
    records_ = records;
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    open_start_ = start;
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
      t += gap(rng);
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(t));
      std::this_thread::sleep_until(due);
      while (outstanding_.load() >= kMaxOpenInFlight) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      const Request req = stream->Next();
      OpenRecord& rec = (*records)[i];
      rec.kind = req.kind;
      const auto now = Clock::now();
      lateness_us->push_back(MicrosBetween(due, now));
      rec.start_us = t * 1e6;
      rec.traced = trace && static_cast<int64_t>(t / 0.05) % 2 == 1;
      if (rec.traced) rec.sent_us = MicrosBetween(start, now);
      Send(i % kConnections, req, kOpen, static_cast<uint32_t>(i), due);
    }
    Drain(10.0);
  }

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load() + outstanding_.load(); }
  double peak_rps() const {
    return static_cast<double>(closed_done_in_window_) / closed_seconds_;
  }
  std::vector<std::string> check_failures() const {
    std::lock_guard<std::mutex> lock(check_mu_);
    return check_failures_;
  }
  // Quality counters over every checked reply.
  uint64_t classify_total() const { return classify_total_.load(); }
  uint64_t classify_top1() const { return classify_top1_.load(); }
  double align_same_mean() const { return align_sum_[1] / std::max<uint64_t>(1, align_n_[1]); }
  double align_diff_mean() const { return align_sum_[0] / std::max<uint64_t>(1, align_n_[0]); }
  uint64_t align_same_n() const { return align_n_[1]; }
  uint64_t align_diff_n() const { return align_n_[0]; }
  uint64_t checked() const { return checked_.load(); }
  /// One real served vector and classify answer, kept for the self-test.
  std::pair<uint32_t, std::vector<float>> sample_vector() const {
    std::lock_guard<std::mutex> lock(check_mu_);
    return sample_vector_;
  }
  std::pair<std::vector<uint32_t>, std::vector<float>> sample_classify() const {
    std::lock_guard<std::mutex> lock(check_mu_);
    return sample_classify_;
  }

 private:
  void SendClosed(size_t conn) {
    Request req;
    {
      std::lock_guard<std::mutex> lock(stream_mu_);
      if (closed_budget_ == 0) {
        closed_exhausted_.store(true);
        return;
      }
      --closed_budget_;
      req = closed_stream_->Next();
    }
    Send(conn, req, closed_phase_, 0, Clock::now());
  }

  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(check_mu_);
    if (check_failures_.size() < 5) check_failures_.push_back(why);
  }

  void ReadLoop(size_t conn) {
    Frame frame;
    Reply reply;
    while (conns_[conn]->ReadFrame(&frame)) {
      const auto now = Clock::now();
      const Slot& slot = ring_[frame.correlation_id & (kRing - 1)];
      reply = Reply{};
      if (!DecodeReply(frame, &reply)) {
        Fail(std::string("undecodable reply to a ") + KindName(slot.req.kind));
        failed_.fetch_add(1);
      } else if (reply.code != 0) {
        failed_.fetch_add(1);
        Fail(std::string(KindName(slot.req.kind)) + " answered with code " +
             std::to_string(reply.code));
      } else {
        Verify(slot.req, reply);
      }
      if (slot.phase == kOpen) {
        OpenRecord& rec = (*records_)[slot.index];
        rec.latency_us = static_cast<float>(MicrosBetween(slot.intended, now));
        rec.cache_hit = reply.cache_hit;
        if (rec.traced) rec.end_us = MicrosBetween(open_start_, now);
      }
      const Phase phase = slot.phase;
      outstanding_.fetch_sub(1);
      if (phase == kPeak || phase == kWarmup) {
        if (closed_running_.load()) {
          closed_completed_.fetch_add(1);
          const size_t b = static_cast<size_t>(
              SecondsSince(closed_start_) / kBucketSeconds);
          if (b < closed_buckets_.size()) closed_buckets_[b].fetch_add(1);
          SendClosed(conn);
        }
      }
    }
  }

  void Verify(const Request& req, const Reply& reply) {
    checked_.fetch_add(1);
    std::string why;
    switch (req.kind) {
      case kLookup:
        if (!VectorMatches(cat_.expected[req.item], reply.vector.data(),
                           reply.vector.size(), &why)) {
          Fail("lookup of item " + std::to_string(req.item) + ": " + why);
        } else if (!have_vector_.exchange(true)) {
          std::lock_guard<std::mutex> lock(check_mu_);
          sample_vector_ = {req.item, reply.vector};
        }
        break;
      case kRecommendKind:
        if (!(reply.score >= 0.0f && reply.score <= 1.0f)) {
          Fail("recommend score " + std::to_string(reply.score) +
               " outside [0, 1]");
        }
        break;
      case kClassifyKind:
        if (!ClassifyValid(reply.class_ids, reply.class_probs, num_classes_,
                           &why)) {
          Fail("classify of item " + std::to_string(req.item) + ": " + why);
          break;
        }
        classify_total_.fetch_add(1);
        if (reply.class_ids[0] == cat_.category[req.item]) {
          classify_top1_.fetch_add(1);
        }
        if (!have_classify_.exchange(true)) {
          std::lock_guard<std::mutex> lock(check_mu_);
          sample_classify_ = {reply.class_ids, reply.class_probs};
        }
        break;
      case kAlignKind: {
        if (!std::isfinite(reply.score)) {
          Fail("align score is not a finite number");
          break;
        }
        const int same = cat_.product[req.item] == cat_.product[req.item_b];
        std::lock_guard<std::mutex> lock(check_mu_);
        align_sum_[same] += reply.score;
        ++align_n_[same];
        break;
      }
    }
  }

  const Catalog& cat_;
  const uint32_t num_classes_;
  std::vector<Slot> ring_;
  std::vector<std::unique_ptr<WireConn>> conns_;
  std::vector<std::unique_ptr<std::mutex>> send_mu_;
  std::vector<std::thread> readers_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> attempted_{0}, failed_{0}, checked_{0};
  std::atomic<int64_t> outstanding_{0};
  std::vector<OpenRecord>* records_ = nullptr;
  Clock::time_point open_start_;

  std::mutex stream_mu_;
  RequestStream* closed_stream_ = nullptr;
  Phase closed_phase_ = kWarmup;
  uint64_t closed_budget_ = 0;
  std::atomic<bool> closed_running_{false}, closed_exhausted_{false};
  std::atomic<uint64_t> closed_completed_{0};
  static constexpr double kBucketSeconds = 0.1;
  std::vector<std::atomic<uint64_t>> closed_buckets_;
  Clock::time_point closed_start_;
  uint64_t closed_done_in_window_ = 0;
  double closed_seconds_ = 1.0;

  mutable std::mutex check_mu_;
  std::vector<std::string> check_failures_;
  std::atomic<uint64_t> classify_total_{0}, classify_top1_{0};
  double align_sum_[2] = {0, 0};
  uint64_t align_n_[2] = {0, 0};
  std::atomic<bool> have_vector_{false}, have_classify_{false};
  std::pair<uint32_t, std::vector<float>> sample_vector_;
  std::pair<std::vector<uint32_t>, std::vector<float>> sample_classify_;
};

/// Latencies of the records of one kind (-1: all) and trace state (-1:
/// either).
std::vector<double> Latencies(const std::vector<OpenRecord>& recs, int kind,
                              int traced = -1) {
  std::vector<double> v;
  for (const OpenRecord& r : recs) {
    if (!std::isnan(r.latency_us) && (kind < 0 || r.kind == kind) &&
        (traced < 0 || r.traced == (traced == 1))) {
      v.push_back(r.latency_us);
    }
  }
  return v;
}

/// The q-quantile of each whole second of the open loop (seconds with at
/// least 100 answered requests), and their median.
double WindowedQuantile(const std::vector<OpenRecord>& recs, double q,
                        std::vector<double>* per_window = nullptr) {
  std::map<int64_t, std::vector<double>> windows;
  for (const OpenRecord& r : recs) {
    if (!std::isnan(r.latency_us)) {
      windows[static_cast<int64_t>(r.start_us / 1e6)].push_back(r.latency_us);
    }
  }
  std::vector<double> values;
  for (auto& [w, lat] : windows) {
    if (lat.size() >= 100) values.push_back(Quantile(std::move(lat), q));
  }
  if (per_window != nullptr) *per_window = values;
  return Median(values);
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

/// Layers under the serving path, timed in process through the
/// public seams: dequantizing row reads, condensed vectors, the kernels the
/// inference heads use and direct engine calls.
void TimeServingLayers(const Flags& flags, const Catalog& cat,
                       uint32_t num_classes, JsonOut* out) {
  using namespace pkgm;
  const std::string store_path = flags.Need("store");
  auto opened = store::MmapEmbeddingStore::Open(store_path);
  if (!out->Check(opened.ok(), "cannot open the served store")) return;
  const store::MmapEmbeddingStore& st = opened.value();
  const uint32_t d = st.dim();
  std::vector<float> scratch(d);
  const uint32_t ne = st.num_entities();
  volatile float sink = 0.0f;
  out->Num("store.row_read_ns", NsPerCall(9, 20000, [&](int i) {
             sink = st.EntityRow((i * 7919u) % ne, scratch.data())[0];
           }));
  core::ServiceVectorProvider provider(&st, cat.entity, cat.key_relations);
  const uint32_t items = provider.num_items();
  out->Num("core.condensed_ns", NsPerCall(9, 500, [&](int i) {
             sink = provider.Condensed(i % items, core::ServiceMode::kAll)[0];
           }));

  // The heads' kernels at the served dim: a (20 x d) x (d x d) linear layer
  // with bias (one title's tokens) and a softmax over the classes.
  const simd::KernelTable& k = simd::Active();
  std::vector<float> a(20 * d, 0.5f), b(d * d, 0.25f), bias(d, 0.1f),
      c(20 * d), logits(num_classes);
  out->Num("tensor.gemm_bias_ns", NsPerCall(9, 2000, [&](int) {
             k.gemm_bias(20, d, d, a.data(), b.data(), bias.data(), c.data());
           }));
  out->Num("tensor.softmax_ns", NsPerCall(9, 20000, [&](int i) {
             for (uint32_t j = 0; j < num_classes; ++j) logits[j] = 0.01f * ((i + j) % 7);
             k.softmax(num_classes, logits.data());
           }));

  // Direct engine calls, no socket: the daemon's models rebuilt in process
  // from the same seed, over a copy of the same int8 store.
  const uint64_t pkg_seed = flags.U64("pkg-seed", 2021);
  tasks::PretrainedPkgm p =
      tasks::BuildAndPretrain(tool::ServePipelineOptions(pkg_seed));
  store::ModelRegistry registry;
  auto gen = tool::ExportGeneration(*p.model, *p.services,
                                    flags.Need("dir") + "/inproc.pkgs",
                                    store::StoreDtype::kInt8, 1);
  if (!out->Check(gen != nullptr, "in-process store export failed")) return;
  registry.Publish(gen->source, gen->provider, gen->info);
  infer::InferPipelineOptions iopt;
  iopt.seed = pkg_seed + 100;
  infer::InferBundle bundle = infer::TrainInferModels(p, iopt);
  const uint32_t users = bundle.num_users;
  infer::InferModelRegistry models;
  models.PublishRecommender(std::move(bundle.recommender), bundle.variant);
  models.PublishClassifier(std::move(bundle.classifier), bundle.variant);
  models.PublishAligner(std::move(bundle.aligner), bundle.variant);
  infer::InferenceEngine engine(&models, &registry, std::move(bundle.titles));
  const struct {
    serve::TaskKind kind;
    const char* name;
  } tasks_[] = {{serve::TaskKind::kRecommend, "infer.recommend_us"},
                {serve::TaskKind::kClassify, "infer.classify_us"},
                {serve::TaskKind::kAlign, "infer.align_us"}};
  for (const auto& t : tasks_) {
    std::vector<serve::ServiceResponse> responses(1);
    serve::ServiceRequest req;
    req.task = t.kind;
    req.top_k = num_classes;
    bool ok = true;
    const double ns = NsPerCall(9, 100, [&](int i) {
      req.item = (i * 131u) % items;
      req.item_b = (i * 17u) % 100;
      req.user = i % users;
      responses[0] = serve::ServiceResponse{};
      engine.ExecuteBatch(t.kind, {&req}, &responses);
      ok = ok && responses[0].code == serve::ResponseCode::kOk;
    });
    out->Check(ok, std::string(t.name) + ": direct engine call failed");
    out->Num(t.name, ns / 1e3);
  }
}

}  // namespace

int RunServe(const Flags& flags) {
  using namespace pkgm;
  JsonOut out;
  const bool trace = flags.U64("trace", 0) != 0;
  const uint64_t seed = flags.U64("seed", 1);
  const double seconds = kServeSeconds;
  const uint32_t num_users = flags.U64("num-users", 60);
  const uint32_t num_classes = flags.U64("num-classes", 8);
  const std::string dir = flags.Need("dir");
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // precise open-loop sleeps

  // Expectations: regenerate the server's synthetic PKG from its seed,
  // derive the key relations, and compute every item's condensed vector
  // from the int8 store the server exported.
  const auto setup_t0 = Clock::now();
  auto popt = tool::ServePipelineOptions(flags.U64("pkg-seed", 2021));
  const kg::SyntheticPkg pkg = kg::SyntheticPkgGenerator(popt.pkg).Generate();
  Catalog cat;
  const auto per_category = DeriveKeyRelations(pkg, popt.service_k);
  for (const auto& item : pkg.items) {
    cat.entity.push_back(item.entity);
    cat.category.push_back(item.category);
    cat.product.push_back(item.product);
    cat.key_relations.push_back(per_category[item.category]);
  }
  PkgsFile store;
  std::string err;
  if (!store.Load(flags.Need("store"), &err)) {
    out.Check(false, err);
    out.Print();
    return 0;
  }
  for (size_t i = 0; i < cat.entity.size(); ++i) {
    cat.expected.push_back(
        ExpectedCondensed(store, cat.entity[i], cat.key_relations[i]));
  }
  out.Num("expect_s", SecondsSince(setup_t0));
  out.Num("store_file_bytes", static_cast<double>(store.file_bytes()));

  LoadRunner runner(cat, num_classes);
  WireConn control;
  const uint16_t port = static_cast<uint16_t>(flags.U64("port", 0));
  if (!out.Check(runner.Connect(port) && control.Connect(port),
                 "cannot connect to the server")) {
    out.Print();
    return 0;
  }
  uint64_t control_id = 1ull << 62;
  auto stats = [&](const std::string& path) {
    Frame f;
    out.Check(control.Call(kStats, ++control_id, "", &f) && f.type == kStatsJson,
              "stats probe failed");
    WriteFile(path, f.payload);
  };

  // Warm-up (checked, untimed): a short closed loop over the same mix and
  // the same hot set.
  const std::string keys = flags.Need("keys");
  if (!out.Check(keys == "hot" || keys == "cold", "--keys is hot or cold")) {
    runner.Stop();
    out.Print();
    return 0;
  }
  const std::vector<uint32_t> hot =
      keys == "hot" ? HotItems(cat.entity.size(), seed ^ 0x407) : std::vector<uint32_t>{};
  RequestStream warm_stream(cat, num_users, num_classes, hot, seed ^ 0x5eed);
  runner.ClosedLoop(&warm_stream, kWarmup, 0.25, 2000);
  out.Num("warmup_done_s", SecondsSince(setup_t0));

  RequestStream stream(cat, num_users, num_classes, hot, seed);
  std::vector<OpenRecord> open;
  std::vector<double> lateness;
  if (!trace) {
    out.Num("first_op_s", SecondsSince(setup_t0));
    runner.OpenLoop(&stream, kOpenLoopRate, seconds * 0.35, seed * 31 + 7,
                    false, &open, &lateness);
    runner.ClosedLoop(&stream, kPeak, seconds * 0.6, ~0ull);
    // The end-to-end figures are medians over one-second windows (p50,
    // p99) and half-second windows (peak rate), so a passing stall of the
    // host moves one window, not the run; whole-run figures are reported
    // alongside.
    std::vector<double> lat = Latencies(open, -1);
    out.Num("p50_us", WindowedQuantile(open, 0.5));
    out.Num("p99_us", WindowedQuantile(open, 0.99));
    out.Num("run_p50_us", Quantile(lat, 0.5));
    out.Num("run_p99_us", Quantile(lat, 0.99));
    out.Num("run_p999_us", Quantile(lat, 0.999));
    out.Num("latency_samples", static_cast<double>(lat.size()));
    out.Num("lateness_p50_us", Quantile(lateness, 0.5));
    out.Num("lateness_p99_us", Quantile(lateness, 0.99));
    const std::vector<double> rates = runner.WindowRates(0.5);
    if (out.Check(!rates.empty(), "closed loop shorter than one 0.5 s window")) {
      out.Num("peak_rps", Median(rates));
      out.Num("run_peak_rps", runner.peak_rps());
      out.Num("peak_rps_min", *std::min_element(rates.begin(), rates.end()));
      out.Num("peak_rps_max", *std::max_element(rates.begin(), rates.end()));
    }
    stats(dir + "/server_stats.json");
  } else {
    // Idle Ping round trips first, then the open loop with trace windows.
    std::vector<double> pings;
    for (int i = 0; i < 300; ++i) {
      Frame f;
      const auto t0 = Clock::now();
      out.Check(control.Call(kPing, ++control_id, "", &f) && f.type == kPong,
                "ping failed");
      pings.push_back(MicrosBetween(t0, Clock::now()));
    }
    out.Num("net.ping_rtt_us", Median(pings));
    runner.OpenLoop(&stream, kOpenLoopRate, seconds * 0.8, seed * 31 + 7,
                    true, &open, &lateness);
    stats(dir + "/server_stats.json");
    const double p50_plain = Quantile(Latencies(open, -1, 0), 0.5);
    const double p50_traced = Quantile(Latencies(open, -1, 1), 0.5);
    out.Num("trace.overhead_pct", 100.0 * (p50_traced - p50_plain) / p50_plain);
    out.Num("p50_us", Quantile(Latencies(open, -1), 0.5));
    size_t hits = 0, lookups = 0;
    std::string spans;
    for (size_t i = 0; i < open.size(); ++i) {
      const OpenRecord& r = open[i];
      if (r.kind == kLookup) {
        ++lookups;
        hits += r.cache_hit;
      }
      if (!r.traced) continue;
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"span\":\"%s\",\"id\":%zu,\"parent\":null,"
                    "\"start_us\":%.1f,\"sent_us\":%.1f,\"end_us\":%.1f,"
                    "\"cache_hit\":%s}\n",
                    KindName(r.kind), i, r.start_us, r.sent_us, r.end_us,
                    r.cache_hit ? "true" : "false");
      spans += line;
    }
    WriteFile(dir + "/trace.jsonl", spans);
    out.Num("serve.cache_hit_ratio",
            lookups ? static_cast<double>(hits) / lookups : 0.0);
    {
      const char* names[] = {nullptr, "infer.recommend_served_p50_us",
                             "infer.classify_served_p50_us",
                             "infer.align_served_p50_us"};
      for (int k = 1; k <= 3; ++k) {
        out.Num(names[k], Quantile(Latencies(open, k), 0.5));
      }
    }
  }
  runner.Stop();

  // Output checks over every reply, then the self-test: the same checks
  // must reject a perturbed copy of a real answer.
  for (const std::string& f : runner.check_failures()) out.Check(false, f);
  out.Check(runner.checked() > 0, "no reply was checked");
  auto [item, vec] = runner.sample_vector();
  if (out.Check(!vec.empty(), "no lookup reply to self-test")) {
    vec[vec.size() / 2] += 0.01f + 0.01f * std::fabs(vec[vec.size() / 2]);
    std::string why;
    out.Check(!VectorMatches(cat.expected[item], vec.data(), vec.size(), &why),
              "self-test: a perturbed served vector passed the check");
  }
  {
    auto [ids, probs] = runner.sample_classify();
    if (out.Check(!ids.empty(), "no classify reply to self-test")) {
      for (float& p : probs) p *= 0.9f;
      std::string why;
      out.Check(!ClassifyValid(ids, probs, num_classes, &why),
                "self-test: probabilities summing to 0.9 passed the check");
    }
    // Reported, not gated: the serving-scale classifier's top-1 accuracy
    // and the aligner's same- vs different-product ordering are near
    // chance on some seeds.
    out.Num("classify_top1", static_cast<double>(runner.classify_top1()) /
                                 std::max<uint64_t>(1, runner.classify_total()));
    out.Num("align_same_mean", runner.align_same_mean());
    out.Num("align_diff_mean", runner.align_diff_mean());
    out.Check(runner.align_same_n() > 0 && runner.align_diff_n() > 0,
              "no align pair of each kind was answered");
  }
  if (trace) TimeServingLayers(flags, cat, num_classes, &out);
  out.Num("attempted", static_cast<double>(runner.attempted()));
  out.Num("failed", static_cast<double>(runner.failed()));
  out.Print();
  return 0;
}

}  // namespace pkgmbench
