#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "field/array3.hpp"
#include "grid/local_grid.hpp"
#include "grid/spherical_grid.hpp"
#include "grid/stretching.hpp"

namespace simas {
namespace {

using grid::GridConfig;
using grid::SphericalGrid;

TEST(Stretching, UniformMesh) {
  const auto f = grid::geometric_faces(4, 0.0, 1.0, 1.0);
  ASSERT_EQ(f.size(), 5u);
  for (int i = 0; i <= 4; ++i) EXPECT_NEAR(f[i], i * 0.25, 1e-14);
}

TEST(Stretching, GeometricRatioHonored) {
  const idx n = 16;
  const double ratio = 5.0;
  const auto f = grid::geometric_faces(n, 1.0, 2.5, ratio);
  const auto w = grid::widths_of(f);
  EXPECT_NEAR(w.back() / w.front(), ratio, 1e-9);
  EXPECT_NEAR(f.front(), 1.0, 1e-14);
  EXPECT_NEAR(f.back(), 2.5, 1e-14);
  // Faces strictly increasing.
  for (std::size_t i = 1; i < f.size(); ++i) EXPECT_GT(f[i], f[i - 1]);
  // Widths sum to the extent.
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.5, 1e-12);
}

TEST(Stretching, CentersAreMidpoints) {
  const auto f = grid::geometric_faces(8, 0.0, 2.0, 3.0);
  const auto c = grid::centers_of(f);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], 0.5 * (f[i] + f[i + 1]), 1e-14);
}

TEST(Stretching, RejectsBadInput) {
  EXPECT_THROW(grid::geometric_faces(0, 0.0, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(grid::geometric_faces(4, 1.0, 0.5, 1.0),
               std::invalid_argument);
  EXPECT_THROW(grid::geometric_faces(4, 0.0, 1.0, -2.0),
               std::invalid_argument);
}

class SphericalGridTest : public ::testing::TestWithParam<double> {};

TEST_P(SphericalGridTest, VolumesSumToWedgeVolume) {
  GridConfig cfg;
  cfg.nr = 12;
  cfg.nt = 9;
  cfg.np = 14;
  cfg.r_stretch = GetParam();
  const SphericalGrid g(cfg);
  double total = 0.0;
  for (idx i = 0; i < cfg.nr; ++i)
    for (idx j = 0; j < cfg.nt; ++j)
      total += g.volume(i, j) * static_cast<double>(cfg.np);
  const double expected = 2.0 * kPi *
                          (std::pow(cfg.r1, 3) - std::pow(cfg.r0, 3)) / 3.0 *
                          (std::cos(cfg.theta0) - std::cos(cfg.theta1));
  EXPECT_NEAR(total / expected, 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Stretch, SphericalGridTest,
                         ::testing::Values(1.0, 2.0, 4.0, 10.0));

TEST(SphericalGrid, AreasAndMetricPositive) {
  GridConfig cfg;
  const SphericalGrid g(cfg);
  for (idx i = 0; i <= cfg.nr; i += 7) {
    for (idx j = 0; j < cfg.nt; j += 3) {
      EXPECT_GT(g.area_r(i, j), 0.0);
    }
  }
  for (idx j = 0; j <= cfg.nt; ++j) EXPECT_GT(g.sin_th_face(j), 0.0);
  for (idx j = 0; j < cfg.nt; ++j) EXPECT_GT(g.sin_th(j), 0.0);
}

TEST(SphericalGrid, GaussDivergenceIdentity) {
  // Closed-cell area identity: for a radial-direction constant vector
  // field (1,0,0)*r^-2 (flux = const through r-faces), net flux must be
  // zero cell by cell: A_r(i+1)/r_f(i+1)^2 == A_r(i)/r_f(i)^2.
  GridConfig cfg;
  const SphericalGrid g(cfg);
  for (idx i = 0; i < cfg.nr; ++i)
    for (idx j = 0; j < cfg.nt; ++j) {
      const double f0 = g.area_r(i, j) / sq(g.r_face(i));
      const double f1 = g.area_r(i + 1, j) / sq(g.r_face(i + 1));
      EXPECT_NEAR(f0, f1, 1e-12 * f0);
    }
}

TEST(SphericalGrid, RejectsPoles) {
  GridConfig cfg;
  cfg.theta0 = 0.0;  // pole included -> singular metric
  EXPECT_THROW(SphericalGrid{cfg}, std::invalid_argument);
}

TEST(LocalGrid, MatchesGlobalCoordinatesInsideSlab) {
  GridConfig cfg;
  cfg.nr = 20;
  const SphericalGrid g(cfg);
  const auto slab = mpisim::radial_slab(cfg.nr, 4, 2);
  const grid::LocalGrid lg(g, slab);
  for (idx i = 0; i < lg.nloc(); ++i) {
    EXPECT_DOUBLE_EQ(lg.rc(i), g.r_center(slab.ilo + i));
    EXPECT_DOUBLE_EQ(lg.rf(i), g.r_face(slab.ilo + i));
  }
  // Interior-rank ghosts are the neighbour's true metric.
  EXPECT_DOUBLE_EQ(lg.rc(-1), g.r_center(slab.ilo - 1));
  EXPECT_DOUBLE_EQ(lg.rc(lg.nloc()), g.r_center(slab.ihi));
}

TEST(LocalGrid, PhysicalBoundaryGhostsMirrored) {
  GridConfig cfg;
  cfg.nr = 10;
  const SphericalGrid g(cfg);
  const auto slab = mpisim::radial_slab(cfg.nr, 1, 0);
  const grid::LocalGrid lg(g, slab);
  // Ghost center below the inner face mirrors across r0.
  EXPECT_NEAR(lg.rc(-1), 2.0 * cfg.r0 - g.r_center(0), 1e-14);
  EXPECT_NEAR(lg.rc(10), 2.0 * cfg.r1 - g.r_center(9), 1e-14);
  EXPECT_TRUE(lg.at_inner_boundary());
  EXPECT_TRUE(lg.at_outer_boundary());
}

// The LocalGrid metric tables agree with the global grid's cell volumes
// and face areas on every slab, the outer face of each slab included, and
// the slabs' volumes add up to the global volume.
class LocalGridTables : public ::testing::TestWithParam<int> {};

TEST_P(LocalGridTables, MatchGlobalVolumesAndAreas) {
  GridConfig cfg;
  cfg.nr = 11;  // uneven slabs for 2 and 3 ranks
  cfg.nt = 7;
  cfg.np = 8;
  const SphericalGrid g(cfg);
  const int nranks = GetParam();
  const auto close = [](real a, real b) {
    return std::abs(a - b) <= 1e-12 * std::abs(b);
  };
  real global_sum = 0.0, slab_sums = 0.0;
  for (idx i = 0; i < cfg.nr; ++i)
    for (idx j = 0; j < cfg.nt; ++j) global_sum += g.volume(i, j);
  for (int rank = 0; rank < nranks; ++rank) {
    const auto slab = mpisim::radial_slab(cfg.nr, nranks, rank);
    const grid::LocalGrid lg(g, slab);
    real sum = 0.0;
    for (idx i = 0; i <= lg.nloc(); ++i) {
      const idx gi = slab.ilo + i;
      for (idx j = 0; j <= cfg.nt; ++j) {
        if (j < cfg.nt) {
          EXPECT_TRUE(close(lg.area_r(i, j), g.area_r(gi, j)))
              << "rank " << rank << " area_r(" << i << ", " << j << ")";
        }
        if (i == lg.nloc()) continue;
        EXPECT_TRUE(close(lg.area_t(i, j), g.area_t(gi, j)))
            << "rank " << rank << " area_t(" << i << ", " << j << ")";
        if (j == cfg.nt) continue;
        EXPECT_TRUE(close(lg.vol(i, j), g.volume(gi, j)))
            << "rank " << rank << " vol(" << i << ", " << j << ")";
        sum += lg.vol(i, j);
      }
    }
    slab_sums += sum;
  }
  EXPECT_TRUE(close(slab_sums, global_sum));
}

INSTANTIATE_TEST_SUITE_P(Ranks, LocalGridTables, ::testing::Values(1, 2, 3));

TEST(Array3, IndexingWithGhosts) {
  field::Array3 a(3, 4, 5, 2, -1.0);
  EXPECT_EQ(a.n1(), 3);
  EXPECT_EQ(a.nghost(), 2);
  EXPECT_EQ(a.size(), (3 + 4) * (4 + 4) * (5 + 4));
  a(-2, -2, -2) = 7.0;
  a(4, 5, 6) = 8.0;  // far ghost corner
  a(1, 2, 3) = 9.0;
  EXPECT_DOUBLE_EQ(a(-2, -2, -2), 7.0);
  EXPECT_DOUBLE_EQ(a(4, 5, 6), 8.0);
  EXPECT_DOUBLE_EQ(a(1, 2, 3), 9.0);
  EXPECT_DOUBLE_EQ(a(0, 0, 0), -1.0);
}

TEST(Array3, InteriorNorms) {
  field::Array3 a(2, 2, 2, 1, 0.0);
  a(0, 0, 0) = 3.0;
  a(1, 1, 1) = -4.0;
  a(-1, 0, 0) = 100.0;  // ghost: excluded from interior norms
  EXPECT_DOUBLE_EQ(a.norm2_interior(), 5.0);
  EXPECT_DOUBLE_EQ(a.max_abs_interior(), 4.0);
}

TEST(Array3, FillSetsEverything) {
  field::Array3 a(2, 2, 2, 1);
  a.fill(2.5);
  EXPECT_DOUBLE_EQ(a(-1, -1, -1), 2.5);
  EXPECT_DOUBLE_EQ(a(2, 2, 2), 2.5);
}

}  // namespace
}  // namespace simas
