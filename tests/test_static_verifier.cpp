// Static kernel-stream verifier tests: the table-driven seeded-bug suite
// (every hazard class planted deliberately, detected both statically and
// at runtime), the differential superset property (on honestly-declared
// streams the static findings cover every runtime finding), the drain
// contract between take_validation_report() and static_verify(),
// span-disjointness clean cases, and the one-live-checker-per-engine
// properties (validate and check_stream share it; graph replay hides no
// op from it).

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "field/field.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/decomposition.hpp"
#include "mpisim/halo.hpp"
#include "par/engine.hpp"
#include "par/env_config.hpp"
#include "par/sim_context.hpp"
#include "variants/code_version.hpp"

namespace simas {
namespace {

using analysis::Check;
using analysis::ValidationReport;
using par::SiteKind;

// Validation builds the live checker static_verify() reads, next to the
// shadow validator take_validation_report() drains.
par::EngineConfig validating_config() {
  par::EngineConfig cfg;  // Acc / Manual / gpu / fusion+async on
  cfg.validate = true;
  cfg.host_threads = 1;
  return cfg;
}

// Leave the engine clean and fully drained so destruction never trips the
// fatal path when CI forces SIMAS_VALIDATE_FATAL=1.
void scrub(par::Engine& eng, std::initializer_list<field::Field*> fields) {
  eng.device_sync();
  for (field::Field* f : fields) f->exit_data();
  (void)eng.take_validation_report();
}

/// Both analyses' findings over one seeded stream, read in the order the
/// drain contract is about: the checker's findings, two drains, then the
/// checker's findings again.
struct Reports {
  ValidationReport statics_before;  ///< static_verify() before any drain
  ValidationReport runtime;         ///< first take_validation_report()
  ValidationReport second_drain;    ///< second take_validation_report()
  ValidationReport statics;         ///< static_verify() after both drains
};

Reports read_reports(par::Engine& eng) {
  Reports r;
  r.statics_before = eng.static_verify();
  r.runtime = eng.take_validation_report();
  r.second_drain = eng.take_validation_report();
  r.statics = eng.static_verify();
  return r;
}

/// The differential property the analyzer is designed around: the static
/// pass trusts declarations and flags conservatively, so on an honestly-
/// declared stream every runtime finding must also be found statically.
/// (UndeclaredAccess / DeclaredWriteNotTouched need observed element
/// touches and are runtime-only by design — the seeded streams declare
/// honestly, so they must not appear at all.)
void expect_static_superset(const Reports& r) {
  for (const analysis::Diagnostic& d : r.runtime.diagnostics) {
    EXPECT_NE(d.check, Check::UndeclaredAccess)
        << "seeded stream must declare honestly: " << d.to_string();
    EXPECT_NE(d.check, Check::DeclaredWriteNotTouched)
        << "seeded stream must declare honestly: " << d.to_string();
    if (d.check == Check::UndeclaredAccess ||
        d.check == Check::DeclaredWriteNotTouched)
      continue;
    EXPECT_TRUE(r.statics.has(d.check))
        << "runtime finding missing from static report: " << d.to_string()
        << "\nstatic report:\n"
        << r.statics.to_string();
  }
}

// ---------------------------------------------------------------------
// 1. Table-driven seeded-bug suite. Each entry plants one hazard class;
//    both the runtime validator (element-exact) and the static verifier
//    (declaration-driven, zero kernels executed) must flag it.

// Bug 1: duplicate write — every iteration of a plain parallel loop hits
// element (0,0,0), declared honestly as a scatter write. Illegal DC.
Reports seed_duplicate_write() {
  par::Engine eng(validating_config());
  field::Field f(eng, "sv_dup_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("sv_dup_w", SiteKind::ParallelLoop, 0);
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4},
               {par::out_scatter(f.id())}, [&](idx i, idx j, idx k) {
                 f(0, 0, 0) = static_cast<real>(i + j + k);
               });
  const Reports r = read_reports(eng);
  scrub(eng, {&f});
  return r;
}

// Bug 2: two kernels share a fusion group and both pure-write every
// element of the same array — the merged launch would race.
Reports seed_fused_conflict() {
  par::Engine eng(validating_config());
  field::Field f(eng, "sv_fuse_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& s1 =
      SIMAS_SITE("sv_fuse_w1", SiteKind::ParallelLoop, 91);
  static const par::KernelSite& s2 =
      SIMAS_SITE("sv_fuse_w2", SiteKind::ParallelLoop, 91);
  const par::Range3 r3{0, 4, 0, 4, 0, 4};
  eng.for_each(s1, r3, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 1.0; });
  eng.for_each(s2, r3, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 2.0; });
  const Reports r = read_reports(eng);
  scrub(eng, {&f});
  return r;
}

// Bug 3: host pulls an array while device writes are still in flight on
// the async queue — no device_sync before the copyout.
Reports seed_copyout_without_sync() {
  par::Engine eng(validating_config());
  field::Field f(eng, "sv_sync_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("sv_sync_w", SiteKind::ParallelLoop, 0);
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 1.0; });
  f.update_host();  // missing eng.device_sync()
  const Reports r = read_reports(eng);
  scrub(eng, {&f});
  return r;
}

// Bug 4: a kernel whose declared (and actual) radial footprint covers the
// ghost columns of an unfinished overlapped exchange.
Reports seed_inflight_ghost_read() {
  Reports r;
  mpisim::World world(2);
  world.run([&](int rank) {
    par::EngineConfig cfg = validating_config();
    cfg.overlap_halo = true;
    par::Engine eng(cfg);
    mpisim::Comm comm(world, rank, eng);
    const mpisim::Slab slab = mpisim::radial_slab(8, 2, rank);
    const idx n = slab.n();
    mpisim::HaloExchanger halo(eng, comm, slab, n, 4, 4);
    field::Field f(eng, "sv_ghost_a", n, 4, 4, 1);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("sv_ghost_r", SiteKind::ParallelLoop, 0);
    const int h = halo.begin_exchange_r({&f});
    real sum = 0.0;
    eng.for_each(site, par::Range3{0, n, 0, 4, 0, 4}, {par::in(f.id())},
                 [&](idx i, idx j, idx k) {
                   sum += f(i - 1, j, k) + f(i + 1, j, k);
                 });
    halo.finish_exchange_r(h);
    if (rank == 0) r = read_reports(eng);
    scrub(eng, {&f});
  });
  return r;
}

struct SeededBug {
  const char* name;
  Check expected;
  std::function<Reports()> run;
};

const std::vector<SeededBug>& seeded_bugs() {
  static const std::vector<SeededBug> table = {
      {"duplicate_write", Check::DuplicateWrite, seed_duplicate_write},
      {"fused_conflict", Check::FusedConflict, seed_fused_conflict},
      {"copyout_without_sync", Check::AsyncHostAccessNoSync,
       seed_copyout_without_sync},
      {"inflight_ghost_read", Check::InflightGhostRead,
       seed_inflight_ghost_read},
  };
  return table;
}

TEST(SeededBugs, StaticAndRuntimeBothDetectEveryPattern) {
  for (const SeededBug& bug : seeded_bugs()) {
    SCOPED_TRACE(bug.name);
    const Reports r = bug.run();
    EXPECT_TRUE(r.runtime.has(bug.expected))
        << "runtime missed it:\n" << r.runtime.to_string();
    EXPECT_TRUE(r.statics.has(bug.expected))
        << "static missed it:\n" << r.statics.to_string();
    EXPECT_GT(r.statics.errors(), 0);
    expect_static_superset(r);
    // The static diagnostic must carry SiteTable provenance (file:line of
    // the registering SIMAS_SITE) so the lint report is actionable.
    const analysis::Diagnostic* d = r.statics.find(bug.expected);
    ASSERT_NE(d, nullptr);
    if (bug.expected != Check::AsyncHostAccessNoSync) {  // data-API event
      EXPECT_NE(d->location.find(':'), std::string::npos) << d->to_string();
    }
  }
}

// One live checker serves both reads: a drain hands each op-level
// finding out once, and never takes it away from static_verify().
TEST(SeededBugs, DrainHandsOutFindingsOnceAndStaticVerifyKeepsThem) {
  for (const SeededBug& bug : seeded_bugs()) {
    SCOPED_TRACE(bug.name);
    const Reports r = bug.run();
    EXPECT_TRUE(r.runtime.has(bug.expected)) << r.runtime.to_string();
    EXPECT_TRUE(r.second_drain.diagnostics.empty())
        << r.second_drain.to_string();
    EXPECT_EQ(r.second_drain.errors(), 0);
    EXPECT_TRUE(r.statics.has(bug.expected)) << r.statics.to_string();
    EXPECT_EQ(r.statics.to_string(), r.statics_before.to_string());
    EXPECT_EQ(r.statics.ops_checked, r.statics_before.ops_checked);
    EXPECT_EQ(r.statics.diagnostics.size(),
              r.statics_before.diagnostics.size());
  }
}

// ---------------------------------------------------------------------
// 2. Span semantics: disjoint declared spans are clean; over-declared
//    spans are flagged conservatively (static strictly ⊇ runtime).

TEST(Spans, DisjointGhostWritesInOneFusionGroupAreClean) {
  // The real group-12 pattern: the inner-wall kernel writes the low ghost,
  // the outer-wall kernel the high ghost. Same fusion group, no overlap.
  par::Engine eng(validating_config());
  field::Field f(eng, "sv_span_a", 4, 4, 4, 1);
  f.enter_data();
  static const par::KernelSite& lo =
      SIMAS_SITE("sv_span_lo", SiteKind::ParallelLoop, 92);
  static const par::KernelSite& hi =
      SIMAS_SITE("sv_span_hi", SiteKind::ParallelLoop, 92);
  const par::Range3 r3{0, 4, 0, 4, 0, 1};
  eng.for_each(lo, r3, {par::out_ghost_lo(f.id())},
               [&](idx j, idx k, idx) { f(-1, j, k) = 1.0; });
  eng.for_each(hi, r3, {par::out_ghost_hi(f.id())},
               [&](idx j, idx k, idx) { f(4, j, k) = 2.0; });
  const Reports r = read_reports(eng);
  EXPECT_FALSE(r.statics.has(Check::FusedConflict)) << r.statics.to_string();
  EXPECT_FALSE(r.runtime.has(Check::FusedConflict)) << r.runtime.to_string();
  EXPECT_EQ(r.statics.errors(), 0) << r.statics.to_string();
  scrub(eng, {&f});
}

TEST(Spans, InteriorReadDuringOverlapWindowIsClean) {
  mpisim::World world(2);
  world.run([&](int rank) {
    par::EngineConfig cfg = validating_config();
    cfg.overlap_halo = true;
    par::Engine eng(cfg);
    mpisim::Comm comm(world, rank, eng);
    const mpisim::Slab slab = mpisim::radial_slab(8, 2, rank);
    const idx n = slab.n();
    mpisim::HaloExchanger halo(eng, comm, slab, n, 4, 4);
    field::Field f(eng, "sv_span_b", n, 4, 4, 1);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("sv_span_int", SiteKind::ParallelLoop, 0);
    const int h = halo.begin_exchange_r({&f});
    real sum = 0.0;
    // Pointwise read over owned planes, declared Interior: never touches
    // the in-flight ghosts, statically provable from the span alone.
    eng.for_each(site, par::Range3{0, n, 0, 4, 0, 4},
                 {par::in_interior(f.id())},
                 [&](idx i, idx j, idx k) { sum += f(i, j, k); });
    halo.finish_exchange_r(h);
    const Reports r = read_reports(eng);
    EXPECT_FALSE(r.statics.has(Check::InflightGhostRead))
        << r.statics.to_string();
    EXPECT_EQ(r.statics.errors(), 0) << r.statics.to_string();
    EXPECT_EQ(r.runtime.errors(), 0) << r.runtime.to_string();
    scrub(eng, {&f});
  });
}

TEST(Spans, OverdeclaredFullSpanIsFlaggedOnlyStatically) {
  // The body reads owned planes only, but the declaration says Full: the
  // static pass trusts the declaration and flags conservatively, while
  // the element-exact runtime validator stays quiet. Static ⊇ runtime,
  // strictly here.
  mpisim::World world(2);
  world.run([&](int rank) {
    par::EngineConfig cfg = validating_config();
    cfg.overlap_halo = true;
    par::Engine eng(cfg);
    mpisim::Comm comm(world, rank, eng);
    const mpisim::Slab slab = mpisim::radial_slab(8, 2, rank);
    const idx n = slab.n();
    mpisim::HaloExchanger halo(eng, comm, slab, n, 4, 4);
    field::Field f(eng, "sv_span_c", n, 4, 4, 1);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("sv_span_over", SiteKind::ParallelLoop, 0);
    const int h = halo.begin_exchange_r({&f});
    real sum = 0.0;
    eng.for_each(site, par::Range3{0, n, 0, 4, 0, 4}, {par::in(f.id())},
                 [&](idx i, idx j, idx k) { sum += f(i, j, k); });
    halo.finish_exchange_r(h);
    const Reports r = read_reports(eng);
    EXPECT_TRUE(r.statics.has(Check::InflightGhostRead))
        << r.statics.to_string();
    EXPECT_FALSE(r.runtime.has(Check::InflightGhostRead))
        << r.runtime.to_string();
    scrub(eng, {&f});
  });
}

// ---------------------------------------------------------------------
// 3. Real solver streams: the production op stream (overlapped exchange
//    included) must verify statically clean — the same property the
//    simas_lint CLI sweeps across every version x backend in CI.

TEST(RealStream, OverlappedSolverStreamVerifiesClean) {
  mpisim::World world(2);
  world.run([&](int rank) {
    par::EngineConfig ecfg = variants::engine_config(
        variants::CodeVersion::A, gpusim::a100_40gb(), 2);
    ecfg.validate = true;
    ecfg.overlap_halo = true;
    par::Engine engine(ecfg);
    mpisim::Comm comm(world, rank, engine);
    {
      mhd::SolverConfig scfg;
      scfg.grid.nr = 14;
      scfg.grid.nt = 10;
      scfg.grid.np = 16;
      mhd::MasSolver solver(engine, comm, scfg);
      solver.initialize();
      solver.run(2);
    }
    const ValidationReport st = engine.static_verify();
    EXPECT_EQ(st.errors(), 0) << st.to_string();
    EXPECT_GT(st.ops_checked, 0);
    const ValidationReport rt = engine.take_validation_report();
    EXPECT_EQ(rt.errors(), 0) << rt.to_string();
  });
}

// ---------------------------------------------------------------------
// 4. Compiler personalities (the portability matrix's toolchain axis).
//    Personalities change what the analyzer may assume about lowering:
//    an atomic-block reduction is protected under every personality, and
//    a toolchain that ignores prefetch hints turns the hint-correctness
//    findings into Info notes.

// A same-element accumulation at an AtomicUpdate site is the lowering
// every personality uses for array reductions it cannot tree-reduce
// (atomic_reduce_traffic); the declared protection must silence
// DuplicateWrite in both analyses, under every personality.
TEST(Personalities, AtomicBlockAccumulationNeverTripsDuplicateWrite) {
  for (const par::CompilerPersonality p : par::all_personalities()) {
    par::EngineConfig cfg = validating_config();
    cfg.personality = p;
    par::Engine eng(cfg);
    field::Field f(eng, "sv_pers_atomic", 4, 4, 4);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("sv_pers_atomic_w", SiteKind::AtomicUpdate, 0);
    eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4},
                 {par::in(f.id()), par::out_scatter(f.id())},
                 [&](idx, idx, idx) { f(0, 0, 0) += 1.0; });
    const ValidationReport st = eng.static_verify();
    const ValidationReport rt = eng.take_validation_report();
    EXPECT_FALSE(st.has(Check::DuplicateWrite))
        << par::personality_name(p) << ":\n"
        << st.to_string();
    EXPECT_FALSE(rt.has(Check::DuplicateWrite))
        << par::personality_name(p) << ":\n"
        << rt.to_string();
    scrub(eng, {&f});
  }
}

// Control: the identical scatter accumulation at a plain parallel-loop
// site IS the illegal-DC hazard — no personality may excuse it.
TEST(Personalities, PlainLoopScatterStillTripsDuplicateWriteEverywhere) {
  for (const par::CompilerPersonality p : par::all_personalities()) {
    par::EngineConfig cfg = validating_config();
    cfg.personality = p;
    par::Engine eng(cfg);
    field::Field f(eng, "sv_pers_plain", 4, 4, 4);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("sv_pers_plain_w", SiteKind::ParallelLoop, 0);
    eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4},
                 {par::out_scatter(f.id())}, [&](idx i, idx j, idx k) {
                   f(0, 0, 0) = static_cast<real>(i + j + k);
                 });
    const ValidationReport st = eng.static_verify();
    EXPECT_TRUE(st.has(Check::DuplicateWrite)) << par::personality_name(p);
    (void)eng.take_validation_report();
    scrub(eng, {&f});
  }
}

// A toolchain that ignores prefetch hints (flang-like) makes a
// wrong-span prefetch inert: the finding must survive as an Info note —
// visible, but neither a warning nor an error.
TEST(Personalities, IgnoredPrefetchDowngradesSpanMismatchToNote) {
  par::EngineConfig cfg = validating_config();
  cfg.memory = gpusim::MemoryMode::Unified;
  cfg.personality = par::CompilerPersonality::Flang;
  par::Engine eng(cfg);
  field::Field f(eng, "sv_pers_span", 4, 4, 4, 1);
  eng.mem_prefetch(f.id(), eng.memory().record(f.id()).bytes,
                   par::Span::Interior);
  static const par::KernelSite& site =
      SIMAS_SITE("sv_pers_span_r", SiteKind::ParallelLoop, 0);
  real sum = 0.0;
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::in(f.id())},
               [&](idx i, idx j, idx k) { sum += f(i, j, k); });
  const ValidationReport st = eng.static_verify();
  EXPECT_TRUE(st.has(Check::PrefetchSpanMismatch)) << st.to_string();
  EXPECT_EQ(st.errors(), 0) << st.to_string();
  EXPECT_EQ(st.warnings(), 0) << st.to_string();  // demoted to Info
  for (const analysis::Diagnostic& d : st.diagnostics) {
    if (d.check == Check::PrefetchSpanMismatch) {
      EXPECT_EQ(d.severity, analysis::Severity::Info);
    }
  }
  (void)eng.take_validation_report();
  scrub(eng, {&f});
}

// The same stream under the hint-honoring default keeps the Warning:
// the downgrade is a personality fact, not a blanket softening.
TEST(Personalities, HonoredPrefetchKeepsSpanMismatchAsWarning) {
  par::EngineConfig cfg = validating_config();
  cfg.memory = gpusim::MemoryMode::Unified;
  cfg.personality = par::CompilerPersonality::Nvfortran;
  par::Engine eng(cfg);
  field::Field f(eng, "sv_pers_span_w", 4, 4, 4, 1);
  eng.mem_prefetch(f.id(), eng.memory().record(f.id()).bytes,
                   par::Span::Interior);
  static const par::KernelSite& site =
      SIMAS_SITE("sv_pers_span_w_r", SiteKind::ParallelLoop, 0);
  real sum = 0.0;
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::in(f.id())},
               [&](idx i, idx j, idx k) { sum += f(i, j, k); });
  const ValidationReport st = eng.static_verify();
  EXPECT_TRUE(st.has(Check::PrefetchSpanMismatch)) << st.to_string();
  EXPECT_GE(st.warnings(), 1) << st.to_string();
  (void)eng.take_validation_report();
  scrub(eng, {&f});
}

// ---------------------------------------------------------------------
// 5. One live checker per engine: validation and check_stream attach the
//    same StreamChecker, it sees every op whether or not a graph replays,
//    and without validation its findings reach static_verify() only.

par::EngineConfig live_config(bool validate, bool check_stream) {
  par::EngineConfig cfg;
  cfg.validate = validate;
  cfg.check_stream = check_stream;
  cfg.host_threads = 1;
  return cfg;
}

// Three kernels, then a copyout with no device_sync; returns every
// finding the engine's checker made.
ValidationReport unsynced_copyout_stream(const par::EngineConfig& cfg) {
  par::Engine eng(cfg);
  field::Field f(eng, "sv_live_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("sv_live_k", SiteKind::ParallelLoop, 0);
  for (int n = 0; n < 3; ++n) {
    eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
                 [&](idx i, idx j, idx k) { f(i, j, k) = real(n); });
  }
  f.update_host();  // missing eng.device_sync()
  const ValidationReport st = eng.static_verify();
  scrub(eng, {&f});
  return st;
}

TEST(LiveChecker, ValidateAndCheckStreamShareOneChecker) {
  const ValidationReport checked =
      unsynced_copyout_stream(live_config(false, true));
  const ValidationReport validated =
      unsynced_copyout_stream(live_config(true, false));
  const ValidationReport both =
      unsynced_copyout_stream(live_config(true, true));
  EXPECT_TRUE(checked.has(Check::AsyncHostAccessNoSync))
      << checked.to_string();
  EXPECT_GE(checked.ops_checked, 3);
  // Both switches on still means one checker: nothing is seen twice.
  EXPECT_EQ(both.ops_checked, checked.ops_checked);
  EXPECT_EQ(validated.ops_checked, checked.ops_checked);
  EXPECT_EQ(both.to_string(), checked.to_string());
  EXPECT_EQ(validated.to_string(), checked.to_string());
}

// ops_checked after `passes` passes of one two-kernel graph scope.
i64 ops_checked_over_passes(bool graph_replay, int passes) {
  par::EngineConfig cfg = live_config(false, true);
  cfg.graph_replay = graph_replay;
  par::Engine eng(cfg);
  field::Field f(eng, "sv_live_graph_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& w =
      SIMAS_SITE("sv_live_graph_w", SiteKind::ParallelLoop, 0);
  static const par::KernelSite& r =
      SIMAS_SITE("sv_live_graph_r", SiteKind::ParallelLoop, 0);
  const par::Range3 r3{0, 4, 0, 4, 0, 4};
  real sum = 0.0;
  for (int pass = 0; pass < passes; ++pass) {
    par::Engine::GraphScope graph(eng, "sv_live_graph");
    eng.for_each(w, r3, {par::out(f.id())},
                 [&](idx i, idx j, idx k) { f(i, j, k) = real(pass); });
    eng.for_each(r, r3, {par::in(f.id())},
                 [&](idx i, idx j, idx k) { sum += f(i, j, k); });
  }
  eng.device_sync();
  const ValidationReport st = eng.static_verify();
  EXPECT_EQ(st.errors(), 0) << st.to_string();
  EXPECT_EQ(eng.graph_stats().replays, graph_replay ? passes - 1 : 0);
  scrub(eng, {&f});
  return st.ops_checked;
}

TEST(LiveChecker, ReplayedGraphPassesAreCheckedLikeCapturedOnes) {
  const i64 one = ops_checked_over_passes(true, 1);
  const i64 two = ops_checked_over_passes(true, 2);
  const i64 three = ops_checked_over_passes(true, 3);
  // Each replayed pass costs the checker what the capture pass did...
  EXPECT_GE(two - one, 2);
  EXPECT_EQ(three - two, two - one);
  // ...and replay skips no op the checker would see without graphs.
  EXPECT_EQ(three, ops_checked_over_passes(false, 3));
}

TEST(LiveChecker, WithoutValidationFindingsReachStaticVerifyOnly) {
  // An explicit default environment: this is the validation-off contract,
  // which an ambient SIMAS_VALIDATE would switch away from.
  const par::SimContext ctx{par::EnvConfig{}};
  par::EngineConfig cfg = live_config(false, true);
  cfg.ctx = &ctx;
  par::Engine eng(cfg);
  EXPECT_EQ(eng.validator(), nullptr);
  field::Field f(eng, "sv_live_dup_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("sv_live_dup", SiteKind::ParallelLoop, 0);
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4},
               {par::out_scatter(f.id())}, [&](idx i, idx j, idx k) {
                 f(0, 0, 0) = static_cast<real>(i + j + k);
               });
  const ValidationReport before = eng.static_verify();
  EXPECT_TRUE(before.has(Check::DuplicateWrite)) << before.to_string();
  const ValidationReport drained = eng.take_validation_report();
  EXPECT_TRUE(drained.diagnostics.empty()) << drained.to_string();
  EXPECT_EQ(drained.ops_checked, 0);
  const ValidationReport after = eng.static_verify();
  EXPECT_EQ(after.to_string(), before.to_string());
  scrub(eng, {&f});
}

}  // namespace
}  // namespace simas
