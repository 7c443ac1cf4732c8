#pragma once
// 3-D array with ghost layers, i-fastest layout (matching the Fortran MAS
// loop order `do k / do j / do i`). Indexing accepts i in [-g, n1+g) etc.;
// the interior is [0, n1) x [0, n2) x [0, n3).

#include <cstddef>
#include <vector>

#include "analysis/shadow.hpp"
#include "util/types.hpp"

namespace simas::field {

class Array3 {
 public:
  Array3() = default;
  Array3(idx n1, idx n2, idx n3, idx nghost = 0, real fill = 0.0);

  idx n1() const { return n1_; }
  idx n2() const { return n2_; }
  idx n3() const { return n3_; }
  idx nghost() const { return g_; }

  /// Total allocated elements (including ghosts).
  idx size() const { return static_cast<idx>(data_.size()); }
  i64 bytes() const { return size() * static_cast<i64>(sizeof(real)); }

  /// Stride between consecutive j at fixed (i,k): a flat offset's radial
  /// column is off % radial_stride() = i + nghost. Used by the validator's
  /// in-flight ghost tracking.
  std::size_t radial_stride() const { return s2_; }

  // Hot path: one strided offset, nothing else, so cell loops vectorize.
  // Only the shadow flavour (SIMAS_SHADOW, the simas_shadow target) adds
  // the branch that reports each access to the validator's slot; it is
  // non-null only when validation is on, and it never feeds the cost
  // model, so modeled time is identical in both flavours.
  real& operator()(idx i, idx j, idx k) {
    const std::size_t off = offset(i, j, k);
#ifdef SIMAS_SHADOW
    if (shadow_ != nullptr) [[unlikely]] shadow_->note(off);
#endif
    return data_[off];
  }
  real operator()(idx i, idx j, idx k) const {
    const std::size_t off = offset(i, j, k);
#ifdef SIMAS_SHADOW
    if (shadow_ != nullptr) [[unlikely]] shadow_->note(off);
#endif
    return data_[off];
  }

  real* data() { return data_.data(); }
  const real* data() const { return data_.data(); }

  void fill(real v);

#ifdef SIMAS_SHADOW
  /// Attach the validator's shadow slot (nullptr detaches). Accesses via
  /// data() bypass the shadow by design: raw-pointer I/O paths report
  /// through the MemoryManager access notes instead.
  void set_shadow(analysis::ShadowSlot* slot) { shadow_ = slot; }
#endif

  /// Interior-only L2 norm and max-abs (serial; used by tests/diagnostics).
  real norm2_interior() const;
  real max_abs_interior() const;

 private:
  std::size_t offset(idx i, idx j, idx k) const {
    return static_cast<std::size_t>((i + g_) +
                                    s2_ * (j + g_) +
                                    s3_ * (k + g_));
  }

  idx n1_ = 0, n2_ = 0, n3_ = 0, g_ = 0;
  std::size_t s2_ = 0, s3_ = 0;
  std::vector<real> data_;
#ifdef SIMAS_SHADOW
  analysis::ShadowSlot* shadow_ = nullptr;
#endif
};

}  // namespace simas::field
