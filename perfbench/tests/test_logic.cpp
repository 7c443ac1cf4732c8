// Tests of the benchmark's own logic: the tail rule, self-time
// subtraction, seeded job sequences and the output check.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "logic.hpp"

namespace perfbench {
namespace {

TEST(TailRule, TenSamplesMustLieBeyondP90) {
  EXPECT_EQ(min_samples_for_tail(0.9), 100);
  EXPECT_FALSE(tail_ok(99, 0.9));
  EXPECT_TRUE(tail_ok(100, 0.9));
  EXPECT_EQ(samples_beyond(100, 0.9), 10);
  EXPECT_EQ(samples_beyond(109, 0.9), 10);
  EXPECT_EQ(samples_beyond(110, 0.9), 11);
  EXPECT_EQ(samples_beyond(0, 0.9), 0);
  EXPECT_FALSE(tail_ok(19, 0.5));
  EXPECT_TRUE(tail_ok(20, 0.5));
}

TEST(TailRule, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.9), 90.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 0.9), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  SpanRecorder rec;
  const int root = rec.add("root", 0.0, 10.0, -1, 0, -1, 0);
  rec.add("a", 1.0, 3.0, root, 0, -1, 0);
  rec.add("b", 2.0, 5.0, root, 0, -1, 1);   // overlaps a: counted once
  rec.add("c", 8.0, 12.0, root, 0, -1, 0);  // clipped at the parent's end
  const int d = rec.add("d", 6.0, 7.0, root, 0, -1, 0);
  rec.add("e", 6.2, 6.7, d, 0, -1, 0);      // grandchild: only d's
  const std::vector<double> self = self_times(rec.spans());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 2.0 + 1.0));
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_NEAR(self[4], 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(self[5], 0.5);

  double total_self = 0.0;
  for (const SelfTimeRow& r : self_time_by_name(rec.spans()))
    if (r.name == "root") total_self = r.self_s;
  EXPECT_DOUBLE_EQ(total_self, 3.0);
}

TEST(SelfTime, OpenThenCloseSetsTheEnd) {
  SpanRecorder rec;
  const int id = rec.open("s", 1.0, -1, 3, 4, 2);
  rec.close(id, 2.5);
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].end - spans[0].start, 1.5);
  EXPECT_EQ(spans[0].key, 3);
  EXPECT_EQ(spans[0].index, 4);
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 1.5);
}

TEST(Seeds, SameSeedGivesTheSameJobSequence) {
  const EnsemblePlan a = ensemble_plan(42, 4, 400);
  const EnsemblePlan b = ensemble_plan(42, 4, 400);
  const EnsemblePlan c = ensemble_plan(43, 4, 400);
  ASSERT_EQ(a.jobs.size(), 400u);
  EXPECT_EQ(a.hot_seeds, b.hot_seeds);
  bool differs = a.hot_seeds != c.hot_seeds;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].miss, b.jobs[i].miss);
    EXPECT_EQ(a.jobs[i].boundary_seed, b.jobs[i].boundary_seed);
    differs = differs || a.jobs[i].boundary_seed != c.jobs[i].boundary_seed;
  }
  EXPECT_TRUE(differs);
}

TEST(Seeds, LastJobOfEveryBlockOfFourIsAFreshMiss) {
  const EnsemblePlan p = ensemble_plan(7, 4, 400);
  const std::set<std::uint64_t> hot(p.hot_seeds.begin(), p.hot_seeds.end());
  EXPECT_EQ(hot.size(), 4u);
  std::set<std::uint64_t> misses;
  for (std::size_t block = 0; block < 100; ++block) {
    int n = 0;
    for (std::size_t j = 4 * block; j < 4 * block + 4; ++j) {
      const EnsembleJob& job = p.jobs[j];
      EXPECT_EQ(job.id, static_cast<std::int64_t>(j));
      if (job.miss) {
        ++n;
        EXPECT_EQ(j % 4, 3u);
        EXPECT_EQ(hot.count(job.boundary_seed), 0u);
        EXPECT_TRUE(misses.insert(job.boundary_seed).second);
      } else {
        EXPECT_EQ(job.boundary_seed,
                  p.hot_seeds[static_cast<std::size_t>(job.hot_shape)]);
      }
    }
    EXPECT_EQ(n, 1);
  }
}

TEST(Seeds, SolverInputsAreSeededAndSmall) {
  const SolverInputs a = solver_inputs(5), b = solver_inputs(5),
                     c = solver_inputs(6);
  EXPECT_EQ(a.dipole_b0, b.dipole_b0);
  EXPECT_EQ(a.atm_scale, b.atm_scale);
  EXPECT_NE(a.dipole_b0, c.dipole_b0);
  EXPECT_LE(std::abs(a.dipole_b0 - 1.0), 0.005);
  EXPECT_LE(std::abs(a.atm_scale - 3.0), 0.015);
}

RunFingerprint sample_fingerprint() {
  RunFingerprint fp;
  fp.diag.total_mass = 16.127783583726714;
  fp.diag.kinetic_energy = 0.025936733584062656;
  fp.diag.magnetic_energy = 3.5;
  fp.diag.thermal_energy = 12.25;
  fp.diag.max_div_b = 1e-15;
  fp.diag.max_speed = 0.75;
  fp.modeled_seconds_per_step = {0.0125, 0.0126};
  fp.pfss_iterations = 31;
  return fp;
}

TEST(OutputCheck, IdenticalReferencePasses) {
  EXPECT_EQ(compare_fingerprints(sample_fingerprint(), sample_fingerprint()),
            "");
}

TEST(OutputCheck, PerturbedReferenceFails) {
  const RunFingerprint got = sample_fingerprint();
  RunFingerprint ref = sample_fingerprint();
  ref.diag.kinetic_energy =
      std::nextafter(ref.diag.kinetic_energy, 1.0);  // one ulp
  EXPECT_EQ(compare_fingerprints(got, ref), "final diagnostics differ");

  ref = sample_fingerprint();
  ref.modeled_seconds_per_step[1] = std::nextafter(0.0126, 1.0);
  EXPECT_EQ(compare_fingerprints(got, ref),
            "modeled seconds per step differ on rank 1");

  ref = sample_fingerprint();
  ref.modeled_seconds_per_step.pop_back();
  EXPECT_EQ(compare_fingerprints(got, ref), "rank count differs");

  ref = sample_fingerprint();
  ref.pfss_iterations += 1;
  EXPECT_EQ(compare_fingerprints(got, ref), "PFSS iteration count differs");
}

}  // namespace
}  // namespace perfbench
