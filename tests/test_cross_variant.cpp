// The paper's validation requirement (Sec. V-A): "For all test runs, the
// solutions were validated against that of the original code to within
// solver tolerances." Every SIMAS code version runs the same numerics, so
// all seven versions must produce identical physics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "variants/code_version.hpp"

namespace simas {
namespace {

struct Solution {
  mhd::GlobalDiagnostics diag;
  real rho_probe = 0.0;
  real br_probe = 0.0;
  real dt_last = 0.0;
  double modeled_time = 0.0;  ///< slowest rank's ledger at the end
  /// Every cell of every persistent field (rho, temp, v, B) as bits,
  /// indexed [rank][field][cell]; field names from rank 0.
  std::vector<std::vector<std::vector<u64>>> state;
  std::vector<std::string> field_names;
  /// Boundary-shell sites (split path) that ran on any rank.
  std::set<std::string> shell_sites;
};

Solution run_version(variants::CodeVersion v, int nranks, int steps,
                     bool overlap_halo = false, int host_threads = 1,
                     double scale = 0.0) {
  Solution out;
  out.state.resize(static_cast<std::size_t>(nranks));
  std::mutex m;
  mpisim::World world(nranks);
  world.run([&](int rank) {
    par::EngineConfig ecfg =
        variants::engine_config(v, gpusim::a100_40gb(), host_threads);
    ecfg.overlap_halo = overlap_halo;
    par::Engine engine(ecfg);
    if (scale > 0.0) engine.cost().set_scales(scale, scale);
    mpisim::Comm comm(world, rank, engine);
    mhd::SolverConfig cfg;
    cfg.grid.nr = 12;
    cfg.grid.nt = 8;
    cfg.grid.np = 12;
    mhd::MasSolver solver(engine, comm, cfg);
    solver.initialize();
    // Modeled stepping time only: setup (data regions, including the
    // overlap path's slot buffers) is a one-off outside the step loop.
    // Barrier-align the clocks first — otherwise per-rank init skew is
    // absorbed as MPI wait inside the measured window and pollutes the
    // comparison (the usual MPI_Barrier-before-MPI_Wtime idiom).
    comm.barrier();
    const double t0 = engine.ledger().now();
    mhd::StepStats stats{};
    for (int s = 0; s < steps; ++s) stats = solver.step();
    const double t = engine.ledger().now() - t0;
    const auto d = solver.diagnostics();

    std::vector<std::vector<u64>> state;
    std::vector<std::string> names;
    for (field::Field* f : solver.state().all_persistent()) {
      f->update_host();
      f->note_host_read();
      const field::Array3& a = f->a();
      std::vector<u64>& cells = state.emplace_back();
      for (idx k = 0; k < a.n3(); ++k)
        for (idx j = 0; j < a.n2(); ++j)
          for (idx i = 0; i < a.n1(); ++i)
            cells.push_back(std::bit_cast<u64>(a(i, j, k)));
      names.push_back(f->name());
    }
    std::set<std::string> shell_sites;
    for (const auto& row : engine.site_profiler().snapshot().rows)
      if (row.name().ends_with("_shell") && row.cells > 0)
        shell_sites.insert(row.name());

    std::lock_guard<std::mutex> lock(m);
    out.modeled_time = std::max(out.modeled_time, t);
    out.state[static_cast<std::size_t>(rank)] = std::move(state);
    out.shell_sites.merge(shell_sites);
    if (rank == 0) {
      out.field_names = std::move(names);
      out.diag = d;
      out.rho_probe = solver.state().rho(1, 2, 3);
      out.br_probe = solver.state().br(2, 3, 4);
      out.dt_last = stats.dt;
    }
  });
  return out;
}

TEST(CrossVariant, AllGpuVersionsBitwiseIdenticalPhysics) {
  const auto ref = run_version(variants::CodeVersion::A, 1, 3);
  for (const auto v : variants::gpu_versions()) {
    const auto got = run_version(v, 1, 3);
    // Identical numerics: the execution models differ only in modeled
    // time accounting, exactly like recompiling MAS with different flags.
    EXPECT_EQ(got.rho_probe, ref.rho_probe) << variants::version_tag(v);
    EXPECT_EQ(got.br_probe, ref.br_probe) << variants::version_tag(v);
    EXPECT_EQ(got.dt_last, ref.dt_last) << variants::version_tag(v);
    EXPECT_EQ(got.diag.kinetic_energy, ref.diag.kinetic_energy)
        << variants::version_tag(v);
  }
}

TEST(CrossVariant, CpuVersionMatchesGpuVersions) {
  const auto ref = run_version(variants::CodeVersion::A, 1, 2);
  const auto cpu = run_version(variants::CodeVersion::Cpu, 1, 2);
  EXPECT_EQ(cpu.rho_probe, ref.rho_probe);
  EXPECT_EQ(cpu.br_probe, ref.br_probe);
}

TEST(CrossVariant, DecomposedRunsAgreeAcrossVersions) {
  // Version x rank-count matrix: every combination produces the same
  // globally-reduced diagnostics within solver tolerance.
  const auto ref = run_version(variants::CodeVersion::A, 1, 2);
  for (const auto v :
       {variants::CodeVersion::AD, variants::CodeVersion::D2XU}) {
    for (const int nranks : {2, 4}) {
      const auto got = run_version(v, nranks, 2);
      EXPECT_NEAR(got.diag.kinetic_energy, ref.diag.kinetic_energy,
                  1e-5 * std::abs(ref.diag.kinetic_energy) + 1e-15)
          << variants::version_tag(v) << " nranks=" << nranks;
      EXPECT_NEAR(got.diag.total_mass, ref.diag.total_mass,
                  1e-8 * ref.diag.total_mass)
          << variants::version_tag(v) << " nranks=" << nranks;
      EXPECT_LT(got.diag.max_div_b, 1e-10);
    }
  }
}

TEST(CrossVariant, OverlapHaloPhysicsByteIdenticalAllVersions) {
  // The overlapped exchange reorders communication against independent
  // kernels but never changes what any cell reads: physics must match the
  // synchronous path bitwise for every code version.
  for (const auto v : variants::all_versions()) {
    const auto sync = run_version(v, 2, 3);
    const auto ovl = run_version(v, 2, 3, /*overlap_halo=*/true);
    EXPECT_EQ(ovl.rho_probe, sync.rho_probe) << variants::version_tag(v);
    EXPECT_EQ(ovl.br_probe, sync.br_probe) << variants::version_tag(v);
    EXPECT_EQ(ovl.dt_last, sync.dt_last) << variants::version_tag(v);
    EXPECT_EQ(ovl.diag.kinetic_energy, sync.diag.kinetic_energy)
        << variants::version_tag(v);
    EXPECT_EQ(ovl.diag.magnetic_energy, sync.diag.magnetic_energy)
        << variants::version_tag(v);
    EXPECT_EQ(ovl.diag.total_mass, sync.diag.total_mass)
        << variants::version_tag(v);
  }
}

TEST(CrossVariant, OverlapHaloByteIdenticalAcrossHostThreads) {
  const auto ref = run_version(variants::CodeVersion::AD, 2, 3);
  for (const int threads : {1, 2, 8}) {
    const auto got =
        run_version(variants::CodeVersion::AD, 2, 3, /*overlap_halo=*/true,
                    threads);
    EXPECT_EQ(got.rho_probe, ref.rho_probe) << "threads=" << threads;
    EXPECT_EQ(got.br_probe, ref.br_probe) << "threads=" << threads;
    EXPECT_EQ(got.diag.kinetic_energy, ref.diag.kinetic_energy)
        << "threads=" << threads;
  }
}

TEST(CrossVariant, OverlapHaloNeverIncreasesModeledTime) {
  // Overlap moves transfers to the copy stream and (when profitable)
  // splits kernels, but must never cost modeled time. Scale 1.0 keeps
  // every split unprofitable (window-only overlap). At scale 400 the split
  // activates only partly: at 2 ranks no shell launch runs (one neighbour's
  // transfer hides less than a launch costs), and at 4 ranks only the
  // middle ranks split the advection stencil.
  // OverlapSplitFullStateBitwiseIdentical (scale 4000) reaches every split
  // stencil on every rank.
  for (const auto v : variants::gpu_versions()) {
    for (const double scale : {1.0, 400.0}) {
      for (const int nranks : {2, 4}) {
        const auto sync = run_version(v, nranks, 2, false, 1, scale);
        const auto ovl = run_version(v, nranks, 2, true, 1, scale);
        EXPECT_EQ(ovl.rho_probe, sync.rho_probe)
            << variants::version_tag(v) << " scale=" << scale
            << " nranks=" << nranks;
        EXPECT_LE(ovl.modeled_time, sync.modeled_time * (1.0 + 1e-12))
            << variants::version_tag(v) << " scale=" << scale
            << " nranks=" << nranks;
      }
    }
  }
}

TEST(CrossVariant, OverlapSplitFullStateBitwiseIdentical) {
  // The interior and boundary-shell launches of the split path compile one
  // shared cell body into two different loops. Every cell of rho, temp,
  // v and B on every rank must match the synchronous path bit for bit,
  // not only a probe. At scale 4000 even a one-field exchange to a single
  // neighbour outlasts a launch, so all three split stencils (advection,
  // conduction, viscosity) take it on every rank, edge ranks included.
  const std::set<std::string> all_shells = {
      "advance_shell", "cond_matvec_shell", "visc_matvec_shell"};
  for (const int nranks : {2, 4}) {
    const auto sync = run_version(variants::CodeVersion::A, nranks, 2,
                                  /*overlap_halo=*/false, 1, 4000.0);
    const auto split = run_version(variants::CodeVersion::A, nranks, 2,
                                   /*overlap_halo=*/true, 1, 4000.0);
    EXPECT_TRUE(sync.shell_sites.empty()) << "nranks=" << nranks;
    ASSERT_EQ(split.shell_sites, all_shells) << "nranks=" << nranks;
    ASSERT_EQ(split.field_names.size(), 8u);
    for (int r = 0; r < nranks; ++r) {
      const auto& a = sync.state[static_cast<std::size_t>(r)];
      const auto& b = split.state[static_cast<std::size_t>(r)];
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t f = 0; f < a.size(); ++f) {
        ASSERT_EQ(a[f].size(), b[f].size());
        std::size_t differing = 0;
        for (std::size_t c = 0; c < a[f].size(); ++c)
          differing += a[f][c] != b[f][c];
        EXPECT_EQ(differing, 0u) << split.field_names[f] << ", rank " << r
                                 << " of " << nranks;
      }
    }
  }
}

TEST(CrossVariant, ModeledTimesDifferEvenThoughPhysicsMatches) {
  // Sanity that we are actually modeling different code versions: the UM
  // version must take more modeled time than the manual version for the
  // identical computation.
  double manual_time = 0.0, um_time = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const auto v =
        pass == 0 ? variants::CodeVersion::AD : variants::CodeVersion::ADU;
    mpisim::World world(1);
    world.run([&](int rank) {
      par::Engine engine(
          variants::engine_config(v, gpusim::a100_40gb(), 1));
      engine.cost().set_scales(1000.0, 100.0);
      mpisim::Comm comm(world, rank, engine);
      mhd::SolverConfig cfg;
      cfg.grid.nr = 12;
      cfg.grid.nt = 8;
      cfg.grid.np = 12;
      mhd::MasSolver solver(engine, comm, cfg);
      solver.initialize();
      solver.run(2);
      (pass == 0 ? manual_time : um_time) = engine.ledger().now();
    });
  }
  EXPECT_GT(um_time, manual_time * 1.05);
}

}  // namespace
}  // namespace simas
