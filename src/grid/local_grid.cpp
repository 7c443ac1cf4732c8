#include "grid/local_grid.hpp"

#include <algorithm>
#include <cmath>

namespace simas::grid {

LocalGrid::LocalGrid(const SphericalGrid& g, const mpisim::Slab& slab)
    : g_(g), slab_(slab), nloc_(slab.n()) {
  const idx nr = g.nr();
  rc_.resize(static_cast<std::size_t>(nloc_ + 2));
  drc_.resize(static_cast<std::size_t>(nloc_ + 2));
  for (idx i = -1; i <= nloc_; ++i) {
    idx gi = slab.ilo + i;
    if (gi < 0) gi = 0;          // mirror width at the inner boundary
    if (gi >= nr) gi = nr - 1;   // mirror width at the outer boundary
    rc_[static_cast<std::size_t>(i + 1)] =
        (slab.ilo + i < 0)
            ? 2.0 * g.r_face(0) - g.r_center(0)
            : (slab.ilo + i >= nr ? 2.0 * g.r_face(nr) - g.r_center(nr - 1)
                                  : g.r_center(slab.ilo + i));
    drc_[static_cast<std::size_t>(i + 1)] = g.dr(gi);
  }
  rf_.resize(static_cast<std::size_t>(nloc_ + 2));
  drf_.resize(static_cast<std::size_t>(nloc_ + 2));
  for (idx i = 0; i <= nloc_ + 1; ++i) {
    const idx gi = std::min<idx>(slab.ilo + i, nr);
    rf_[static_cast<std::size_t>(i)] = g.r_face(gi);
    drf_[static_cast<std::size_t>(i)] = g.dr_face(gi);
  }

  // Metric tables. Keep every expression as written here: the stencils'
  // results are pinned bit-for-bit by the physics fingerprints.
  const idx nt = g.nt();
  const real dph = g.dph();
  alin_.resize(static_cast<std::size_t>(nloc_ + 1));
  for (idx i = 0; i <= nloc_; ++i)
    alin_[static_cast<std::size_t>(i)] = (sq(rf(i + 1)) - sq(rf(i))) / 2.0;
  cot_.resize(static_cast<std::size_t>(nt));
  for (idx j = 0; j < nt; ++j)
    cot_[static_cast<std::size_t>(j)] = std::cos(tc(j)) / stc(j);
  const std::size_t n = static_cast<std::size_t>((nloc_ + 1) * (nt + 1));
  vol_.resize(n);
  area_r_.resize(n);
  area_t_.resize(n);
  flux_p_.resize(n);
  width_sq_.resize(n);
  for (idx j = 0; j <= nt; ++j) {
    const real ctj0 = std::cos(tf(j)), ctj1 = std::cos(tf(j + 1));
    for (idx i = 0; i <= nloc_; ++i) {
      const std::size_t e = m(i, j);
      vol_[e] = (std::pow(rf(i + 1), 3) - std::pow(rf(i), 3)) / 3.0 *
                (ctj0 - ctj1) * dph;
      area_r_[e] = sq(rf(i)) * (ctj0 - ctj1) * dph;
      area_t_[e] = alin(i) * stf(j) * dph;
      flux_p_[e] = alin(i) * dtc(j) / (rc(i) * stc(j) * dph);
      width_sq_[e] = sq(std::min(
          drc(i), std::min(rc(i) * dtc(j), rc(i) * stc(j) * dph)));
    }
  }
}

}  // namespace simas::grid
