// The benchmark's own computations and output checks. They read the
// program's artifacts from their documented byte layouts and recompute
// results in double precision, so a check never calls the code it checks.
// Every check is a pure function; the self-test feeds each one a
// perturbed output and expects it to fail.
#ifndef PKGMBENCH_CHECKS_H_
#define PKGMBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pkgmbench {

/// A `.pkgs` embedding store read straight from its documented layout
/// (88-byte little-endian header, 64-byte aligned sections; int8 sections
/// hold one fp32 scale per row ahead of the quantized rows).
class PkgsFile {
 public:
  /// Loads and validates the header; returns false with a message on error.
  bool Load(const std::string& path, std::string* error);

  bool is_int8() const { return dtype_ == 1; }
  uint32_t dim() const { return dim_; }
  uint32_t num_entities() const { return num_entities_; }
  uint32_t num_relations() const { return num_relations_; }
  bool has_relation_module() const { return transfer_offset_ != 0; }
  uint64_t file_bytes() const { return bytes_.size(); }

  enum Table { kEntity, kRelation, kTransfer };
  uint64_t Cols(Table t) const {
    return t == kTransfer ? static_cast<uint64_t>(dim_) * dim_ : dim_;
  }
  uint32_t Rows(Table t) const {
    return t == kEntity ? num_entities_ : num_relations_;
  }
  /// Dequantized (or verbatim fp32) row as doubles.
  std::vector<double> Row(Table t, uint32_t row) const;
  /// int8 stores only: the row's scale and quantized values.
  float Scale(Table t, uint32_t row) const;
  const int8_t* Quantized(Table t, uint32_t row) const;
  /// fp32 stores only: the raw row.
  const float* Float(Table t, uint32_t row) const;

 private:
  uint64_t Offset(Table t) const;
  std::vector<char> bytes_;
  uint32_t dtype_ = 0, dim_ = 0, num_entities_ = 0, num_relations_ = 0;
  uint64_t entity_offset_ = 0, relation_offset_ = 0, transfer_offset_ = 0;
};

/// The condensed service vector of Eq. 20 for one item:
/// (1/k) * sum_j [h + r_j ; M_{r_j} h - r_j] over the key relations r_j.
std::vector<double> ExpectedCondensed(const PkgsFile& store, uint32_t entity,
                                      const std::vector<uint32_t>& relations);

/// Served vector equals the expected one element-wise within
/// 1e-4 * (1 + |expected|) (float accumulation vs double reference).
bool VectorMatches(const std::vector<double>& expected, const float* served,
                   size_t served_len, std::string* why);

/// An index answer equals the expected tail set exactly (both sorted).
bool TailsMatch(const std::vector<uint32_t>& expected,
                const std::vector<uint32_t>& got, std::string* why);

/// A full classify answer: `num_classes` distinct valid ids, probabilities
/// in [0, 1], sorted descending, summing to 1 within 1e-3.
bool ClassifyValid(const std::vector<uint32_t>& ids,
                   const std::vector<float>& probs, uint32_t num_classes,
                   std::string* why);

/// Every element of an int8 row is within half a quantization step of the
/// fp32 row it was quantized from.
bool QuantizedRowMatches(const float* fp32_row, float scale, const int8_t* q,
                         uint64_t cols, std::string* why);

/// One (head, relation, tail) fact by id.
struct Fact {
  uint32_t h, r, t;
};

/// Filtered tail-prediction Hits@10 with TransE L1 scores ||h + r - t||_1
/// computed from `store`'s fp32 rows. A candidate tail for which `known`
/// returns true (another true fact of the query) is not a competitor.
double HitsAt10(const PkgsFile& store, const std::vector<Fact>& queries,
                const std::function<bool(const Fact&)>& known);

/// The same ranking over rows given directly (row-major, dim columns) —
/// used for the untrained-model baseline.
double HitsAt10Rows(const std::vector<float>& entities,
                    const std::vector<float>& relations, uint32_t dim,
                    const std::vector<Fact>& queries,
                    const std::function<bool(const Fact&)>& known);

}  // namespace pkgmbench

#endif  // PKGMBENCH_CHECKS_H_
