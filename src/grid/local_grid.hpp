#pragma once
// Per-rank view of the global spherical grid for a radial slab, with
// ghost-extended 1-D coordinate arrays so stencil kernels can index
// i in [-1, nloc] without branching. At physical radial boundaries the
// ghost metric is mirrored; at rank interfaces it is the neighbour's true
// metric (the grid is globally defined, so no communication is needed).
//
// The cell volume and face metrics the stencils need are tabulated once per
// (i, j) at construction. Each entry keeps the exact left-to-right
// expression of the per-cell form, so reading the table is bit-identical
// to recomputing it (DESIGN.md "Grid metrics").

#include <cstddef>
#include <vector>

#include "grid/spherical_grid.hpp"
#include "mpisim/decomposition.hpp"
#include "util/types.hpp"

namespace simas::grid {

class LocalGrid {
 public:
  LocalGrid(const SphericalGrid& g, const mpisim::Slab& slab);

  const SphericalGrid& global() const { return g_; }
  const mpisim::Slab& slab() const { return slab_; }
  idx nloc() const { return nloc_; }
  idx nt() const { return g_.nt(); }
  idx np() const { return g_.np(); }

  bool at_inner_boundary() const { return slab_.rank_below < 0; }
  bool at_outer_boundary() const { return slab_.rank_above < 0; }

  /// Cell-center radius, i in [-1, nloc].
  real rc(idx i) const { return rc_[static_cast<std::size_t>(i + 1)]; }
  /// Radial cell width, i in [-1, nloc].
  real drc(idx i) const { return drc_[static_cast<std::size_t>(i + 1)]; }
  /// Face radius, i in [0, nloc + 1] (local face i is global face ilo + i).
  real rf(idx i) const { return rf_[static_cast<std::size_t>(i)]; }
  /// Center-to-center distance across face i.
  real drf(idx i) const { return drf_[static_cast<std::size_t>(i)]; }

  // θ / φ metric forwarded from the global grid (not decomposed).
  real tc(idx j) const { return g_.th_center(clamp_t(j)); }
  real tf(idx j) const { return g_.th_face(clamp_tf(j)); }
  real dtc(idx j) const { return g_.dth(clamp_t(j)); }
  real dtf(idx j) const { return g_.dth_face(clamp_tf(j)); }
  real stc(idx j) const { return g_.sin_th(clamp_t(j)); }
  real stf(idx j) const { return g_.sin_th_face(clamp_tf(j)); }
  real dph() const { return g_.dph(); }
  /// Cell-center cotangent cos(tc) / stc, tabulated per θ-cell.
  real cot(idx j) const { return cot_[static_cast<std::size_t>(clamp_t(j))]; }

  /// ∫ r dr over cell i, i in [0, nloc].
  real alin(idx i) const { return alin_[static_cast<std::size_t>(i)]; }

  // Per-(i, j) metric tables, i in [0, nloc], j in [0, nt].
  /// Cell volume ∫ r² sinθ dr dθ dφ.
  real vol(idx i, idx j) const { return vol_[m(i, j)]; }
  /// Area of the r-face at rf(i) over θ-cell j.
  real area_r(idx i, idx j) const { return area_r_[m(i, j)]; }
  /// Area of the θ-face at tf(j) over r-cell i.
  real area_t(idx i, idx j) const { return area_t_[m(i, j)]; }
  /// φ-face flux factor alin · dθ / (rc sinθ dφ) of cell (i, j).
  real flux_p(idx i, idx j) const { return flux_p_[m(i, j)]; }
  /// Squared smallest width min(dr, r dθ, r sinθ dφ)² of cell (i, j): the
  /// stencil scale of the Jacobi preconditioners.
  real width_sq(idx i, idx j) const { return width_sq_[m(i, j)]; }

 private:
  /// One (nloc+1) x (nt+1) layout for every table, i fastest.
  std::size_t m(idx i, idx j) const {
    return static_cast<std::size_t>(i + (nloc_ + 1) * j);
  }

  idx clamp_t(idx j) const {
    if (j < 0) return 0;
    if (j >= g_.nt()) return g_.nt() - 1;
    return j;
  }
  idx clamp_tf(idx j) const {
    if (j < 0) return 0;
    if (j > g_.nt()) return g_.nt();
    return j;
  }

  const SphericalGrid& g_;
  mpisim::Slab slab_;
  idx nloc_;
  std::vector<real> rc_, drc_, rf_, drf_, alin_, cot_;
  std::vector<real> vol_, area_r_, area_t_, flux_p_, width_sq_;
};

}  // namespace simas::grid
