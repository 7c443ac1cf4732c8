// Property test of the constrained-transport machinery: ANY field
// initialized as the discrete curl of a random edge vector potential is
// divergence-free to round-off, and stays so through full solver steps —
// for random potentials, stretched meshes, and every decomposition.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "mhd/ops.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "util/rng.hpp"
#include "variants/code_version.hpp"

namespace simas::mhd {
namespace {

// Deterministic pseudo-random value per global edge location, so every
// rank computes identical potentials for shared faces.
real edge_noise(u64 seed, idx gi, idx j, idx k, int component) {
  Rng rng(seed ^ (static_cast<u64>(gi + 7) * 73856093ull) ^
          (static_cast<u64>(j + 13) * 19349663ull) ^
          (static_cast<u64>(k + 29) * 83492791ull) ^
          (static_cast<u64>(component) * 2654435761ull));
  return rng.uniform(-1.0, 1.0);
}

struct Params {
  int nranks;
  double stretch;
  u64 seed;
};

// Names each case by its fields: without a printer gtest dumps the raw
// bytes, padding included, and the case names change from build to build.
void PrintTo(const Params& p, std::ostream* os) {
  *os << "nranks" << p.nranks << "_stretch" << p.stretch << "_seed"
      << p.seed;
}

class CtRandomPotential : public ::testing::TestWithParam<Params> {};

TEST_P(CtRandomPotential, CurlOfPotentialIsDivFreeAndStaysSo) {
  const auto p = GetParam();
  SolverConfig cfg;
  cfg.grid.nr = 12;
  cfg.grid.nt = 8;
  cfg.grid.np = 12;
  cfg.grid.r_stretch = p.stretch;

  mpisim::World world(p.nranks);
  world.run([&](int rank) {
    par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                               gpusim::a100_40gb(), 1));
    mpisim::Comm comm(world, rank, engine);
    MasSolver solver(engine, comm, cfg);
    solver.initialize();
    auto& st = solver.state();
    auto& c = solver.context();
    const auto& lg = solver.local_grid();
    const idx nloc = st.nloc, nt = st.nt, np = st.np;
    const idx ilo = lg.slab().ilo;
    const real dph = lg.dph();

    // Random vector potential on edges: A_r in er, A_t in et, A_p in ep.
    for (idx i = 0; i < nloc; ++i)
      for (idx j = 0; j <= nt; ++j)
        for (idx k = 0; k < np; ++k)
          st.er(i, j, k) = edge_noise(p.seed, ilo + i, j, k, 0);
    for (idx i = 0; i <= nloc; ++i)
      for (idx j = 0; j < nt; ++j)
        for (idx k = 0; k < np; ++k)
          st.et(i, j, k) = edge_noise(p.seed, ilo + i, j, k, 1);
    for (idx i = 0; i <= nloc; ++i)
      for (idx j = 0; j <= nt; ++j)
        for (idx k = 0; k < np; ++k)
          st.ep(i, j, k) = edge_noise(p.seed, ilo + i, j, k, 2);
    c.halo.wrap_phi({&st.er, &st.et});

    // B = circulation(A)/area on every face (the CT curl).
    for (idx i = 0; i <= nloc; ++i)
      for (idx j = 0; j < nt; ++j)
        for (idx k = 0; k < np; ++k) {
          const real rf = lg.rf(i);
          const real ctj0 = std::cos(lg.tf(j)),
                     ctj1 = std::cos(lg.tf(j + 1));
          const real area = sq(rf) * (ctj0 - ctj1) * dph;
          const real lp0 = rf * lg.stf(j) * dph;
          const real lp1 = rf * lg.stf(j + 1) * dph;
          const real lt = rf * lg.dtc(j);
          st.br(i, j, k) =
              ((st.ep(i, j + 1, k) * lp1 - st.ep(i, j, k) * lp0) -
               (st.et(i, j, k + 1) - st.et(i, j, k)) * lt) /
              area;
        }
    for (idx i = 0; i < nloc; ++i)
      for (idx j = 0; j <= nt; ++j)
        for (idx k = 0; k < np; ++k) {
          const real stf = std::max<real>(lg.stf(j), 1e-12);
          const real alin = (sq(lg.rf(i + 1)) - sq(lg.rf(i))) / 2.0;
          const real area = alin * stf * dph;
          const real lr = lg.drc(i);
          const real lp0 = lg.rf(i) * stf * dph;
          const real lp1 = lg.rf(i + 1) * stf * dph;
          st.bt(i, j, k) =
              ((st.er(i, j, k + 1) - st.er(i, j, k)) * lr -
               (st.ep(i + 1, j, k) * lp1 - st.ep(i, j, k) * lp0)) /
              area;
        }
    for (idx i = 0; i < nloc; ++i)
      for (idx j = 0; j < nt; ++j)
        for (idx k = 0; k < np; ++k) {
          const real alin = (sq(lg.rf(i + 1)) - sq(lg.rf(i))) / 2.0;
          const real area = alin * lg.dtc(j);
          const real lr = lg.drc(i);
          const real lt0 = lg.rf(i) * lg.dtc(j);
          const real lt1 = lg.rf(i + 1) * lg.dtc(j);
          st.bp(i, j, k) =
              ((st.et(i + 1, j, k) * lt1 - st.et(i, j, k) * lt0) -
               (st.er(i, j + 1, k) - st.er(i, j, k)) * lr) /
              area;
        }
    apply_b_ghosts(c);

    // Property 1: div(curl A) = 0 to round-off, for any A.
    real max_div = 0.0;
    for (idx i = 0; i < nloc; ++i)
      for (idx j = 0; j < nt; ++j)
        for (idx k = 0; k < np; ++k)
          max_div = std::max(max_div,
                             std::abs(div_b_cell(lg, st, i, j, k)));
    EXPECT_LT(max_div, 1e-10);

    // Property 2: the CT update preserves it through full physics steps
    // (the random field is dynamically violent; one small step suffices).
    compute_center_b(c);
    exchange_center_ghosts(c);
    ct_update(c, 1e-5);
    real max_div2 = 0.0;
    for (idx i = 0; i < nloc; ++i)
      for (idx j = 0; j < nt; ++j)
        for (idx k = 0; k < np; ++k)
          max_div2 = std::max(max_div2,
                              std::abs(div_b_cell(lg, st, i, j, k)));
    EXPECT_LT(max_div2, 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CtRandomPotential,
    ::testing::Values(Params{1, 1.0, 11}, Params{1, 6.0, 22},
                      Params{2, 4.0, 33}, Params{4, 1.0, 44},
                      Params{4, 8.0, 55}, Params{3, 2.0, 66}));

}  // namespace
}  // namespace simas::mhd
