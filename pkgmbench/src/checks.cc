#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>

namespace pkgmbench {
namespace {

template <typename T>
T ReadLe(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

}  // namespace

bool PkgsFile::Load(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  bytes_.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  if (bytes_.size() < 88 || ReadLe<uint32_t>(bytes_.data()) != 0x504b4753u) {
    *error = path + ": not a .pkgs store";
    return false;
  }
  const char* h = bytes_.data();
  dtype_ = ReadLe<uint32_t>(h + 8);
  dim_ = ReadLe<uint32_t>(h + 12);
  num_entities_ = ReadLe<uint32_t>(h + 16);
  num_relations_ = ReadLe<uint32_t>(h + 20);
  entity_offset_ = ReadLe<uint64_t>(h + 40);
  relation_offset_ = ReadLe<uint64_t>(h + 48);
  transfer_offset_ = ReadLe<uint64_t>(h + 56);
  if (dtype_ > 1 || ReadLe<uint64_t>(h + 72) != bytes_.size()) {
    *error = path + ": bad dtype or file size";
    return false;
  }
  const uint64_t elem = is_int8() ? 1 : 4;
  const uint64_t scales = is_int8() ? 4 : 0;
  for (Table t : {kEntity, kRelation, kTransfer}) {
    if (t == kTransfer && !has_relation_module()) continue;
    if (Offset(t) + Rows(t) * (scales + Cols(t) * elem) > bytes_.size()) {
      *error = path + ": section past end of file";
      return false;
    }
  }
  return true;
}

uint64_t PkgsFile::Offset(Table t) const {
  switch (t) {
    case kEntity: return entity_offset_;
    case kRelation: return relation_offset_;
    case kTransfer: return transfer_offset_;
  }
  return 0;
}

float PkgsFile::Scale(Table t, uint32_t row) const {
  return ReadLe<float>(bytes_.data() + Offset(t) + 4ull * row);
}

const int8_t* PkgsFile::Quantized(Table t, uint32_t row) const {
  return reinterpret_cast<const int8_t*>(bytes_.data() + Offset(t) +
                                         4ull * Rows(t) + row * Cols(t));
}

const float* PkgsFile::Float(Table t, uint32_t row) const {
  return reinterpret_cast<const float*>(bytes_.data() + Offset(t)) +
         row * Cols(t);
}

std::vector<double> PkgsFile::Row(Table t, uint32_t row) const {
  const uint64_t n = Cols(t);
  std::vector<double> out(n);
  if (is_int8()) {
    const double s = Scale(t, row);
    const int8_t* q = Quantized(t, row);
    for (uint64_t i = 0; i < n; ++i) out[i] = s * q[i];
  } else {
    float v;
    const char* p = reinterpret_cast<const char*>(Float(t, row));
    for (uint64_t i = 0; i < n; ++i) {
      std::memcpy(&v, p + 4 * i, 4);
      out[i] = v;
    }
  }
  return out;
}

std::vector<double> ExpectedCondensed(const PkgsFile& store, uint32_t entity,
                                      const std::vector<uint32_t>& relations) {
  const uint32_t d = store.dim();
  std::vector<double> out(2 * d, 0.0);
  if (relations.empty()) return out;
  const std::vector<double> h = store.Row(PkgsFile::kEntity, entity);
  const double inv_k = 1.0 / static_cast<double>(relations.size());
  for (uint32_t r : relations) {
    const std::vector<double> rv = store.Row(PkgsFile::kRelation, r);
    const std::vector<double> m = store.Row(PkgsFile::kTransfer, r);
    for (uint32_t i = 0; i < d; ++i) {
      double mh = 0.0;
      for (uint32_t j = 0; j < d; ++j) mh += m[i * d + j] * h[j];
      out[i] += inv_k * (h[i] + rv[i]);
      out[d + i] += inv_k * (mh - rv[i]);
    }
  }
  return out;
}

bool VectorMatches(const std::vector<double>& expected, const float* served,
                   size_t served_len, std::string* why) {
  if (served_len != expected.size()) {
    *why = Fmt("served vector has %g elements, expected %g",
               static_cast<double>(served_len),
               static_cast<double>(expected.size()));
    return false;
  }
  for (size_t i = 0; i < served_len; ++i) {
    const double tol = 1e-4 * (1.0 + std::fabs(expected[i]));
    if (!(std::fabs(served[i] - expected[i]) <= tol)) {
      *why = Fmt("element %g is %.7g, expected %.7g", static_cast<double>(i),
                 served[i], expected[i]);
      return false;
    }
  }
  return true;
}

bool TailsMatch(const std::vector<uint32_t>& expected,
                const std::vector<uint32_t>& got, std::string* why) {
  if (expected == got) return true;
  *why = Fmt("index returned %g tails, expected %g",
             static_cast<double>(got.size()),
             static_cast<double>(expected.size()));
  return false;
}

bool ClassifyValid(const std::vector<uint32_t>& ids,
                   const std::vector<float>& probs, uint32_t num_classes,
                   std::string* why) {
  if (ids.size() != num_classes || probs.size() != num_classes) {
    *why = Fmt("classify returned %g classes, expected %g",
               static_cast<double>(ids.size()), num_classes);
    return false;
  }
  std::vector<uint32_t> sorted_ids = ids;
  std::sort(sorted_ids.begin(), sorted_ids.end());
  if (std::adjacent_find(sorted_ids.begin(), sorted_ids.end()) !=
          sorted_ids.end() ||
      sorted_ids.back() >= num_classes) {
    *why = "classify returned an invalid or repeated class id";
    return false;
  }
  double sum = 0.0;
  for (size_t i = 0; i < probs.size(); ++i) {
    if (!(probs[i] >= 0.0f && probs[i] <= 1.0f)) {
      *why = Fmt("class probability %g outside [0, 1]", probs[i]);
      return false;
    }
    if (i > 0 && probs[i] > probs[i - 1]) {
      *why = "class probabilities are not sorted";
      return false;
    }
    sum += probs[i];
  }
  if (std::fabs(sum - 1.0) > 1e-3) {
    *why = Fmt("class probabilities sum to %.6f", sum);
    return false;
  }
  return true;
}

bool QuantizedRowMatches(const float* fp32_row, float scale, const int8_t* q,
                         uint64_t cols, std::string* why) {
  // Half a step, plus 1e-4 step for the float rounding of the writer's
  // x * (127 / maxabs) product and of the scale (|q| <= 127, so a few
  // float ulps of 127 are ~3e-5 step).
  const double half_step = (0.5 + 1e-4) * scale + 1e-12;
  for (uint64_t i = 0; i < cols; ++i) {
    float x;
    std::memcpy(&x, fp32_row + i, sizeof(float));
    const double err = std::fabs(static_cast<double>(scale) * q[i] - x);
    if (!(err <= half_step)) {
      *why = Fmt("element %g off by %.9g steps (x = %.9g)",
                 static_cast<double>(i), err / scale, x);
      return false;
    }
  }
  return true;
}

double HitsAt10Rows(const std::vector<float>& entities,
                    const std::vector<float>& relations, uint32_t dim,
                    const std::vector<Fact>& queries,
                    const std::function<bool(const Fact&)>& known) {
  if (queries.empty()) return 0.0;
  const size_t n = entities.size() / dim;
  std::vector<float> q(dim);
  size_t hits = 0;
  for (const Fact& f : queries) {
    for (uint32_t i = 0; i < dim; ++i) {
      q[i] = entities[f.h * dim + i] + relations[f.r * dim + i];
    }
    auto score = [&](size_t e) {
      float s = 0.0f;
      const float* t = entities.data() + e * dim;
      for (uint32_t i = 0; i < dim; ++i) s += std::fabs(q[i] - t[i]);
      return s;
    };
    const float target = score(f.t);
    size_t better = 0;
    for (size_t e = 0; e < n && better < 10; ++e) {
      if (e == f.t || score(e) >= target) continue;
      if (!known(Fact{f.h, f.r, static_cast<uint32_t>(e)})) ++better;
    }
    if (better < 10) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(queries.size());
}

double HitsAt10(const PkgsFile& store, const std::vector<Fact>& queries,
                const std::function<bool(const Fact&)>& known) {
  const uint32_t d = store.dim();
  std::vector<float> ent(static_cast<size_t>(store.num_entities()) * d);
  std::vector<float> rel(static_cast<size_t>(store.num_relations()) * d);
  for (uint32_t e = 0; e < store.num_entities(); ++e) {
    const std::vector<double> row = store.Row(PkgsFile::kEntity, e);
    std::copy(row.begin(), row.end(), ent.begin() + e * d);
  }
  for (uint32_t r = 0; r < store.num_relations(); ++r) {
    const std::vector<double> row = store.Row(PkgsFile::kRelation, r);
    std::copy(row.begin(), row.end(), rel.begin() + r * d);
  }
  return HitsAt10Rows(ent, rel, d, queries, known);
}

}  // namespace pkgmbench
