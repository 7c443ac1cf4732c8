#include <algorithm>
#include <cmath>
#include <vector>

#include "mhd/ops.hpp"

namespace simas::mhd {

using par::SiteKind;

// Pointwise energy sources: optically thin radiative losses
// (~ rad_coef ρ² Λ(T), Λ(T) = T^{-1/2} above a floor) and exponentially
// stratified coronal heating H(r) = heat_coef exp(-(r-1)/heat_scale).
// Linearized-implicit update, unconditionally stable and positivity
// preserving:
//   T_new = (T + dt a) / (1 + dt b),  a >= 0, b >= 0.
void radiation_heating(MhdContext& c, real dt) {
  State& st = c.st;
  const grid::LocalGrid& lg = c.lg;
  const PhysicsConfig& ph = c.phys;
  const real gm1 = ph.gamma - 1.0;
  const real rad = ph.rad_coef;
  const real h0 = ph.heat_coef;
  const real hs = ph.heat_scale;

  static const par::KernelSite& site =
      SIMAS_SITE("radiation_heating", SiteKind::ParallelLoop, 61);

  // The heating profile depends on r only: one exp per radial cell per
  // call, not per cell (same expression, so the same bits).
  std::vector<real> stratification(static_cast<std::size_t>(st.nloc));
  for (idx i = 0; i < st.nloc; ++i)
    stratification[static_cast<std::size_t>(i)] =
        std::exp(-(lg.rc(i) - 1.0) / hs);
  const real* strat = stratification.data();

  c.eng.for_each(
      site, par::Range3{0, st.nloc, 0, st.nt, 0, st.np},
      {par::in(st.rho.id()), par::in(st.temp.id()), par::out(st.temp.id())},
      [&, dt, gm1, rad, h0, strat](idx i, idx j, idx k) {
        const real rho = std::max<real>(st.rho(i, j, k), 1.0e-12);
        const real t = std::max<real>(st.temp(i, j, k), 1.0e-12);
        const real heat = gm1 * h0 * strat[i] / rho;
        // Λ(T) = T^{-1/2}: loss rate per unit T is b = gm1 rad ρ T^{-3/2}.
        const real loss_b = gm1 * rad * rho / (t * std::sqrt(t));
        st.temp(i, j, k) = (t + dt * heat) / (1.0 + dt * loss_b);
      });
}

}  // namespace simas::mhd
