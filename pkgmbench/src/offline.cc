// The offline path's input generator, output checks and
// per-layer timings. The pipeline itself (index build, the three trainers,
// store export) runs through pkgm_tool and pkgm_psd, driven by run.py;
// these subcommands prepare its inputs and judge its outputs.
#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "bench_util.h"
#include "checks.h"
#include "core/gradients.h"
#include "core/negative_sampler.h"
#include "core/pkgm_model.h"
#include "kg/indexed_query_engine.h"
#include "kg/io.h"
#include "kg/mmap_triple_index.h"
#include "kg/synthetic_pkg.h"
#include "kg/triple_index_writer.h"
#include "store/embedding_store_writer.h"
#include "tensor/simd/kernel_dispatch.h"
#include "util/rng.h"
#include "wire_client.h"

namespace pkgmbench {
namespace {

using NameTriple = std::array<std::string, 3>;

std::vector<NameTriple> ReadTsv(const std::string& path) {
  std::vector<NameTriple> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t a = line.find('\t');
    const size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    out.push_back({line.substr(0, a), line.substr(a + 1, b - a - 1),
                   line.substr(b + 1)});
  }
  return out;
}

// The offline workload's PKG: 16 categories x 200 items, ~25.5k distinct
// triples.
constexpr uint32_t kCategories = 16, kItemsPerCategory = 200;
// pkgm_tool train's default margin, which every trainer of the workload
// runs with.
constexpr float kMargin = 2.0f;

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

}  // namespace

/// gen-kg: writes <dir>/kg.tsv (the observed synthetic PKG with a share of
/// its lines repeated and shuffled, as raw ETL output would be) and
/// <dir>/held.tsv (facts withheld from training for Hits@10).
int RunGenKg(const Flags& flags) {
  JsonOut out;
  pkgm::kg::SyntheticPkgOptions opt;
  opt.seed = flags.U64("seed", 1);
  opt.num_categories = kCategories;
  opt.items_per_category = kItemsPerCategory;
  const pkgm::kg::SyntheticPkg pkg = pkgm::kg::SyntheticPkgGenerator(opt).Generate();
  std::vector<pkgm::kg::Triple> triples = pkg.observed.triples();
  std::mt19937_64 rng(opt.seed * 7 + 1);
  std::shuffle(triples.begin(), triples.end(), rng);

  // Withhold ~1% of item-attribute facts whose head, relation and tail all
  // still occur elsewhere, so every held-out id is known to the trainer.
  std::unordered_map<uint32_t, uint32_t> ent_uses, rel_uses;
  for (const auto& t : triples) {
    ++ent_uses[t.head];
    ++ent_uses[t.tail];
    ++rel_uses[t.relation];
  }
  const std::unordered_set<uint32_t> props(pkg.property_relations.begin(),
                                           pkg.property_relations.end());
  const size_t want_held = triples.size() / 100;
  std::vector<pkgm::kg::Triple> kept, held;
  for (const auto& t : triples) {
    if (held.size() < want_held && props.count(t.relation) &&
        ent_uses[t.head] > 1 && ent_uses[t.tail] > 1 && rel_uses[t.relation] > 1) {
      --ent_uses[t.head];
      --ent_uses[t.tail];
      --rel_uses[t.relation];
      held.push_back(t);
    } else {
      kept.push_back(t);
    }
  }
  // Repeat 3% of the kept lines at random positions.
  std::vector<pkgm::kg::Triple> lines = kept;
  for (size_t i = 0; i < kept.size() / 33; ++i) {
    lines.push_back(kept[rng() % kept.size()]);
  }
  std::shuffle(lines.begin(), lines.end(), rng);

  const std::string dir = flags.Need("dir");
  auto write = [&](const std::string& path,
                   const std::vector<pkgm::kg::Triple>& ts) {
    std::ofstream f(path);
    for (const auto& t : ts) {
      f << pkg.entities.Name(t.head) << '\t' << pkg.relations.Name(t.relation)
        << '\t' << pkg.entities.Name(t.tail) << '\n';
    }
    return static_cast<bool>(f);
  };
  out.Check(write(dir + "/kg.tsv", lines) && write(dir + "/held.tsv", held),
            "cannot write the generated KG");
  std::unordered_set<uint32_t> ents, rels;
  for (const auto& t : kept) {
    ents.insert(t.head);
    ents.insert(t.tail);
    rels.insert(t.relation);
  }
  out.Num("lines", static_cast<double>(lines.size()));
  out.Num("distinct", static_cast<double>(kept.size()));
  out.Num("held", static_cast<double>(held.size()));
  out.Num("entities", static_cast<double>(ents.size()));
  out.Num("relations", static_cast<double>(rels.size()));
  out.Print();
  return 0;
}

/// check-index: the .pkgt holds exactly the distinct triples of kg.tsv, and
/// sampled (h, r) queries through the TripleSource seam return exactly the
/// tails of the benchmark's own map. --trace 1 adds the kg layer timings.
int RunCheckIndex(const Flags& flags) {
  using namespace pkgm;
  JsonOut out;
  const std::string dir = flags.Need("dir");
  const std::string pkgt = flags.Need("pkgt");
  const std::vector<NameTriple> lines = ReadTsv(dir + "/kg.tsv");
  std::set<NameTriple> distinct(lines.begin(), lines.end());
  std::map<std::pair<std::string, std::string>, std::vector<std::string>> tails;
  for (const NameTriple& t : distinct) tails[{t[0], t[1]}].push_back(t[2]);

  kg::Vocab entities, relations;
  auto store = kg::ImportTriplesTsv(dir + "/kg.tsv", &entities, &relations);
  auto index = kg::MmapTripleIndex::Open(pkgt);
  if (!out.Check(store.ok() && index.ok(), "cannot load the KG or its index")) {
    out.Print();
    return 0;
  }
  out.Check(index->NumTriples() == distinct.size(),
            "index holds " + std::to_string(index->NumTriples()) +
                " triples; the input has " + std::to_string(distinct.size()) +
                " distinct");
  out.Check(index->MaxEntityId() == entities.size() &&
                index->MaxRelationId() == relations.size(),
            "index entity/relation counts differ from the input's");

  // Sampled (h, r) queries, answers compared as sorted name lists.
  std::vector<std::pair<uint32_t, uint32_t>> keys;
  std::vector<std::vector<uint32_t>> expected;
  std::mt19937_64 rng(flags.U64("seed", 1));
  std::vector<const std::pair<const std::pair<std::string, std::string>,
                              std::vector<std::string>>*> all;
  for (const auto& kv : tails) all.push_back(&kv);
  for (int i = 0; i < 2000; ++i) {
    const auto& [key, names] = *all[rng() % all.size()];
    keys.push_back({entities.Find(key.first), relations.Find(key.second)});
    std::vector<uint32_t> ids;
    for (const std::string& n : names) ids.push_back(entities.Find(n));
    std::sort(ids.begin(), ids.end());
    expected.push_back(std::move(ids));
  }
  std::vector<uint32_t> got;
  size_t mismatches = 0;
  std::string why;
  for (size_t i = 0; i < keys.size(); ++i) {
    const kg::IdSpan span = index->Tails(keys[i].first, keys[i].second);
    got.assign(span.begin(), span.end());
    std::sort(got.begin(), got.end());
    if (!TailsMatch(expected[i], got, &why)) ++mismatches;
  }
  out.Check(mismatches == 0, std::to_string(mismatches) +
                                 " sampled (h, r) queries returned other tails "
                                 "than the input holds");
  // Self-test: an answer with one tail dropped must fail the same check.
  got = expected[0];
  got.pop_back();
  out.Check(!TailsMatch(expected[0], got, &why),
            "self-test: an answer missing one triple passed the check");
  out.Num("distinct", static_cast<double>(distinct.size()));

  if (flags.U64("trace", 0) != 0) {
    // The index writer alone, input already parsed.
    std::vector<double> writes;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      auto st = kg::TripleIndexWriter().Write(store.value(), dir + "/rewrite.pkgt");
      writes.push_back(SecondsSince(t0));
      out.Check(st.ok(), "index rewrite failed");
    }
    out.Num("kg.index_write_s", Median(writes));
    out.Num("kg.index_bytes", static_cast<double>(FileBytes(pkgt)));
    kg::IndexedQueryEngine engine(&index.value());
    volatile size_t sink = 0;
    out.Num("kg.point_query_us", NsPerCall(9, 2000, [&](int i) {
               const auto& k = keys[i % keys.size()];
               sink = engine.TripleQuery(k.first, k.second).size();
             }) / 1e3);
    // Two-atom joins "items with both of these attribute values", built
    // from real facts so every answer holds the item they came from.
    std::vector<std::vector<kg::IndexedQueryEngine::Atom>> joins;
    std::vector<uint32_t> join_item;
    for (size_t i = 0; i < keys.size() && joins.size() < 500; ++i) {
      const uint32_t h = keys[i].first;
      const kg::IdSpan rels = index->RelationsOf(h);
      if (rels.size() < 2) continue;
      const uint32_t r1 = rels[0], r2 = rels[rels.size() - 1];
      joins.push_back({kg::IndexedQueryEngine::Atom::HasTail(r1, index->Tails(h, r1)[0]),
                       kg::IndexedQueryEngine::Atom::HasTail(r2, index->Tails(h, r2)[0])});
      join_item.push_back(h);
    }
    size_t join_misses = 0;
    out.Num("kg.join_query_us", NsPerCall(9, 200, [&](int i) {
               const size_t j = i % joins.size();
               const std::vector<uint32_t> ans = engine.ConjunctiveQuery(joins[j]);
               join_misses += !std::binary_search(ans.begin(), ans.end(), join_item[j]);
             }) / 1e3);
    out.Check(!joins.empty() && join_misses == 0,
              "a join query missed the item its atoms came from");
  }
  out.Print();
  return 0;
}

/// check-train: Hits@10 of the trained model's exported fp32 rows against
/// an untrained model of the same shape, and every int8 row of the served
/// store within half a quantization step of its fp32 row.
int RunCheckTrain(const Flags& flags) {
  using namespace pkgm;
  JsonOut out;
  const std::string dir = flags.Need("dir");
  kg::Vocab entities, relations;
  auto store = kg::ImportTriplesTsv(dir + "/kg.tsv", &entities, &relations);
  PkgsFile fp32, int8;
  std::string err;
  if (!out.Check(store.ok(), "cannot load kg.tsv") ||
      !out.Check(fp32.Load(flags.Need("fp32"), &err), err) ||
      !out.Check(int8.Load(flags.Need("int8"), &err), err)) {
    out.Print();
    return 0;
  }
  std::unordered_set<uint64_t> known;
  auto key = [&](const Fact& f) {
    return (static_cast<uint64_t>(f.h) * relations.size() + f.r) *
               entities.size() + f.t;
  };
  for (const auto& t : store->triples()) known.insert(key({t.head, t.relation, t.tail}));
  std::vector<Fact> held;
  for (const NameTriple& t : ReadTsv(dir + "/held.tsv")) {
    const Fact f{entities.Find(t[0]), relations.Find(t[1]), entities.Find(t[2])};
    if (f.h == kg::kInvalidId || f.r == kg::kInvalidId || f.t == kg::kInvalidId) {
      out.Check(false, "a held-out fact names an unknown entity or relation");
      continue;
    }
    held.push_back(f);
    known.insert(key(f));
  }
  const auto is_known = [&](const Fact& f) { return known.count(key(f)) > 0; };
  out.Check(fp32.num_entities() == entities.size() &&
                fp32.num_relations() == relations.size(),
            "exported store shape differs from the input vocabulary");
  const double trained = HitsAt10(fp32, held, is_known);

  core::PkgmModelOptions mopt;
  mopt.num_entities = entities.size();
  mopt.num_relations = relations.size();
  mopt.dim = fp32.dim();
  mopt.seed = flags.U64("model-seed", 17);
  const core::PkgmModel untrained_model(mopt);
  const uint32_t d = fp32.dim();
  std::vector<float> ent(static_cast<size_t>(entities.size()) * d),
      rel(static_cast<size_t>(relations.size()) * d), scratch(d);
  for (uint32_t e = 0; e < entities.size(); ++e) {
    const float* row = untrained_model.EntityRow(e, scratch.data());
    std::copy(row, row + d, ent.begin() + e * d);
  }
  for (uint32_t r = 0; r < relations.size(); ++r) {
    const float* row = untrained_model.RelationRow(r, scratch.data());
    std::copy(row, row + d, rel.begin() + r * d);
  }
  const double untrained = HitsAt10Rows(ent, rel, d, held, is_known);
  out.Num("hits10_trained", trained);
  out.Num("hits10_untrained", untrained);
  out.Num("held", static_cast<double>(held.size()));
  out.Check(trained >= std::max(3.0 * untrained, untrained + 0.1),
            "Hits@10 " + std::to_string(trained) +
                " is not well above the untrained model's " +
                std::to_string(untrained));

  // Store: every int8 element within half a step of the fp32 element.
  size_t bad_rows = 0, rows = 0;
  std::string why, first_bad;
  if (out.Check(int8.is_int8() && !fp32.is_int8() && int8.dim() == fp32.dim() &&
                    int8.num_entities() == fp32.num_entities() &&
                    int8.num_relations() == fp32.num_relations() &&
                    int8.has_relation_module() == fp32.has_relation_module(),
                "int8 and fp32 stores differ in shape")) {
    for (auto t : {PkgsFile::kEntity, PkgsFile::kRelation, PkgsFile::kTransfer}) {
      if (t == PkgsFile::kTransfer && !fp32.has_relation_module()) continue;
      for (uint32_t r = 0; r < fp32.Rows(t); ++r, ++rows) {
        if (!QuantizedRowMatches(fp32.Float(t, r), int8.Scale(t, r),
                                 int8.Quantized(t, r), fp32.Cols(t), &why) &&
            bad_rows++ == 0) {
          first_bad = " (table " + std::to_string(t) + " row " +
                      std::to_string(r) + ": " + why + ")";
        }
      }
    }
    out.Check(bad_rows == 0, std::to_string(bad_rows) + " of " +
                                 std::to_string(rows) +
                                 " int8 rows are off by more than half a step" +
                                 first_bad);
    // Self-test: one element moved two steps must fail the same check.
    const uint64_t cols = fp32.Cols(PkgsFile::kEntity);
    std::vector<int8_t> q(int8.Quantized(PkgsFile::kEntity, 0),
                          int8.Quantized(PkgsFile::kEntity, 0) + cols);
    q[0] = static_cast<int8_t>(q[0] > 0 ? q[0] - 2 : q[0] + 2);
    out.Check(!QuantizedRowMatches(fp32.Float(PkgsFile::kEntity, 0),
                                   int8.Scale(PkgsFile::kEntity, 0), q.data(),
                                   cols, &why),
              "self-test: a row two steps off passed the store check");
  }
  out.Print();
  return 0;
}

/// offline-layers (traced run only): the kernels, sampler, fused hinge step
/// and store writer under the trainers, timed in process at the workload's
/// dimension through the public seams.
int RunOfflineLayers(const Flags& flags) {
  using namespace pkgm;
  JsonOut out;
  const std::string dir = flags.Need("dir");
  auto index = kg::MmapTripleIndex::Open(flags.Need("pkgt"));
  auto model = core::PkgmModel::LoadFromFile(flags.Need("model"));
  if (!out.Check(index.ok() && model.ok(), "cannot load the index or model")) {
    out.Print();
    return 0;
  }
  const uint32_t d = model->dim();
  const simd::KernelTable& k = simd::Active();
  out.Str("isa", simd::ActiveIsaName());
  std::vector<float> x(d, 0.3f), y(d, -0.2f), z(d, 0.1f), o(d), m(d * d, 0.01f);
  volatile float sink = 0.0f;
  out.Num("tensor.l1_distance_ns", NsPerCall(9, 100000, [&](int i) {
             x[0] = static_cast<float>(i & 7);
             sink = k.l1_distance(d, x.data(), y.data());
           }));
  out.Num("tensor.residual_ns", NsPerCall(9, 100000, [&](int) {
             k.residual(d, x.data(), y.data(), z.data(), o.data());
           }));
  out.Num("tensor.gemv_t_ns", NsPerCall(9, 20000, [&](int) {
             k.gemv_t(d, d, m.data(), x.data(), o.data());
           }));
  out.Num("tensor.ger_ns", NsPerCall(9, 20000, [&](int) {
             k.ger(d, d, 1e-6f, x.data(), y.data(), m.data());
           }));
  out.Num("tensor.axpy_ns", NsPerCall(9, 100000, [&](int) {
             k.axpy(d, 1e-6f, x.data(), o.data());
           }));

  std::vector<kg::Triple> triples;
  index->AppendTriples(&triples);
  core::NegativeSampler::Options sopt;
  sopt.num_entities = index->MaxEntityId();
  sopt.num_relations = index->MaxRelationId();
  core::NegativeSampler sampler(sopt, &index.value());
  Rng rng(flags.U64("seed", 1));
  std::vector<core::NegativeSample> negs(triples.size());
  out.Num("core.sample_ns", NsPerCall(5, static_cast<int>(triples.size()), [&](int i) {
             negs[i] = sampler.Sample(triples[i], &rng);
           }));
  core::HingeWorkspace ws;
  ws.EnsureDim(d);
  core::GradArena arena;
  out.Num("core.hinge_grad_ns", NsPerCall(5, static_cast<int>(triples.size()), [&](int i) {
             if (i % 512 == 0) arena.Clear();
             sink = core::FusedHingeGradients(*model, triples[i], negs[i].triple,
                                              kMargin, k, &ws, &arena);
           }));

  std::vector<double> exports;
  store::StoreWriterOptions wopt;
  wopt.dtype = store::StoreDtype::kInt8;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    Status st = store::EmbeddingStoreWriter(wopt).Write(*model, dir + "/layer_export.pkgs");
    exports.push_back(SecondsSince(t0));
    out.Check(st.ok(), "store export failed");
  }
  out.Num("store.export_s", Median(exports));
  out.Print();
  return 0;
}

/// ps-probe: PullRows / PushGrads round trips against a live pkgm_psd
/// shard, one batch-sized request at a time, after a ShardInfo probe for
/// the shard's place and the model's shape. The pushed gradients are zero,
/// so the probe leaves the shard's model unchanged.
int RunPsProbe(const Flags& flags) {
  JsonOut out;
  WireConn conn;
  Frame f;
  uint64_t id = 1ull << 62;
  if (!out.Check(conn.Connect(flags.U64("port", 0)), "cannot reach the shard") ||
      !out.Check(conn.Call(kShardInfo, ++id, "", &f) && f.type == kShardInfoReply &&
                     f.payload.size() >= 20,
                 "shard info probe failed")) {
    out.Print();
    return 0;
  }
  uint32_t info[5];  // shard index, shards, entities, relations, dim
  std::memcpy(info, f.payload.data(), sizeof(info));
  const uint32_t shard = info[0], shards = info[1], entities = info[2], d = info[4];
  std::vector<uint32_t> ids;
  for (uint32_t e = shard; e < entities && ids.size() < 512; e += shards) ids.push_back(e);
  std::string pull;
  auto put32 = [](uint32_t v, std::string* s) { s->append(reinterpret_cast<const char*>(&v), 4); };
  put32(1, &pull);
  pull.push_back(0);  // entity table
  put32(static_cast<uint32_t>(ids.size()), &pull);
  for (uint32_t e : ids) put32(e, &pull);

  pkgm::core::GradArena arena;
  for (uint32_t e : ids) arena.Entity(e, d);
  std::string blob;
  pkgm::core::SerializeGradArena(arena, &blob);
  std::string push;
  const float scale = 1.0f;
  push.append(reinterpret_cast<const char*>(&scale), 4);
  put32(0, &push);  // epoch
  push += blob;

  std::vector<double> pulls, pushes;
  for (int i = 0; i < 300; ++i) {
    auto t0 = Clock::now();
    out.Check(conn.Call(kPullRows, ++id, pull, &f) && f.type == kRows,
              "pull failed");
    pulls.push_back(MicrosBetween(t0, Clock::now()));
    t0 = Clock::now();
    out.Check(conn.Call(kPushGrads, ++id, push, &f) && f.type == kPushAck,
              "push failed");
    pushes.push_back(MicrosBetween(t0, Clock::now()));
  }
  out.Num("dist.pull_rtt_us", Median(pulls));
  out.Num("dist.push_rtt_us", Median(pushes));
  out.Print();
  return 0;
}

}  // namespace pkgmbench
