// Kernel-stream IR and graph capture/replay tests: op helpers, signature
// validation, CapturedGraph lifecycle, and the Engine's capture -> replay
// -> divergence -> re-capture state machine with its launch-overhead
// accounting (per-graph instead of per-kernel), and cross-engine reuse
// through a GraphCache partitioned by scope.

#include <gtest/gtest.h>

#include <string>

#include "par/engine.hpp"
#include "par/graph_cache.hpp"
#include "par/site_table.hpp"

namespace simas::par {
namespace {

/// One engine.* counter, read from the engine's metrics snapshot.
i64 engine_counter(Engine& eng, const char* name) {
  return eng.metrics_snapshot().counter(name);
}

EngineConfig graph_config(LoopModel loops = LoopModel::Dc2018,
                          gpusim::MemoryMode mem = gpusim::MemoryMode::Manual) {
  EngineConfig cfg;
  cfg.loops = loops;
  cfg.memory = mem;
  cfg.gpu = true;
  cfg.graph_replay = true;
  cfg.host_threads = 1;
  return cfg;
}

const KernelSite& stream_site(const char* name,
                              SiteKind kind = SiteKind::ParallelLoop) {
  return SiteTable::process().intern(make_site(name, kind));
}

KernelOp kernel(OpKind kind, const KernelSite* site, i64 cells) {
  KernelOp op;
  op.kind = kind;
  op.site = site;
  op.cells = cells;
  return op;
}

TEST(StreamIr, OpKindHelpers) {
  const KernelSite& site = stream_site("stream_helpers");
  const KernelOp launch = kernel(OpKind::Launch, &site, 64);
  const KernelOp red = kernel(OpKind::Reduce, &site, 8);

  const StreamOp ops[] = {StreamOp{launch}, StreamOp{red},
                          StreamOp{kernel(OpKind::ArrayReduce, nullptr, 0)},
                          StreamOp{SyncOp{}}, StreamOp{FusionBreakOp{}}};
  EXPECT_EQ(op_kind(ops[0]), OpKind::Launch);
  EXPECT_EQ(op_kind(ops[1]), OpKind::Reduce);
  EXPECT_EQ(op_kind(ops[2]), OpKind::ArrayReduce);
  EXPECT_EQ(op_kind(ops[3]), OpKind::Sync);
  EXPECT_EQ(op_kind(ops[4]), OpKind::FusionBreak);

  EXPECT_STREQ(op_kind_name(OpKind::Launch), "launch");
  EXPECT_STREQ(op_kind_name(OpKind::ArrayReduce), "array_reduce");
  EXPECT_STREQ(op_kind_name(OpKind::FusionBreak), "fusion_break");

  EXPECT_EQ(op_site(ops[0]), &site);
  EXPECT_EQ(op_cells(ops[0]), 64);
  EXPECT_EQ(op_site(ops[3]), nullptr);
  EXPECT_EQ(op_cells(ops[4]), 0);
}

TEST(StreamIr, SameSignatureChecksKindSiteAndCells) {
  const KernelSite& a = stream_site("stream_sig_a");
  const KernelSite& b = stream_site("stream_sig_b");
  const KernelOp la = kernel(OpKind::Launch, &a, 100);
  KernelOp la2 = la;
  EXPECT_TRUE(same_signature(StreamOp{la}, StreamOp{la2}));

  KernelOp other_site = la;
  other_site.site = &b;
  EXPECT_FALSE(same_signature(StreamOp{la}, StreamOp{other_site}));

  KernelOp other_cells = la;
  other_cells.cells = 101;
  EXPECT_FALSE(same_signature(StreamOp{la}, StreamOp{other_cells}));

  // A launch and a reduction at the same site and cells are different ops.
  const KernelOp red = kernel(OpKind::Reduce, &a, 100);
  EXPECT_FALSE(same_signature(StreamOp{la}, StreamOp{red}));

  EXPECT_TRUE(same_signature(StreamOp{SyncOp{}}, StreamOp{SyncOp{}}));
  EXPECT_FALSE(same_signature(StreamOp{SyncOp{}}, StreamOp{FusionBreakOp{}}));
}

TEST(StreamIr, CapturedGraphLifecycle) {
  CapturedGraph g("pcg/iter");
  EXPECT_EQ(g.name(), "pcg/iter");
  EXPECT_FALSE(g.captured());
  EXPECT_EQ(g.size(), 0u);

  g.begin_capture();
  g.append(StreamOp{SyncOp{}});
  g.append(StreamOp{FusionBreakOp{}});
  EXPECT_EQ(g.size(), 2u);
  EXPECT_FALSE(g.captured());  // not replayable until finalized
  g.finalize();
  EXPECT_TRUE(g.captured());

  g.invalidate();
  EXPECT_FALSE(g.captured());
  g.begin_capture();  // re-capture starts from an empty op list
  EXPECT_EQ(g.size(), 0u);
}

TEST(StreamIr, SiteInventoryComesFromRegistry) {
  stream_site("stream_inventory_probe");
  const auto sites = stream_sites();
  EXPECT_EQ(sites.size(), SiteTable::process().size());
  bool found = false;
  for (const auto& s : sites) found |= (s.name == "stream_inventory_probe");
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------
// Engine graph capture/replay.

TEST(GraphReplay, SecondPassReplaysWithPerGraphLaunchOverhead) {
  Engine eng(graph_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_basic_1", SiteKind::ParallelLoop);
  static const KernelSite& s2 = SIMAS_SITE("graph_basic_2", SiteKind::ParallelLoop);
  static const KernelSite& sr =
      SIMAS_SITE("graph_basic_red", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false);
  const Range3 r{0, 8, 0, 8, 0, 8};

  auto pass = [&] {
    Engine::GraphScope graph(eng, "basic");
    eng.for_each(s1, r, {out(id)}, [](idx, idx, idx) {});
    eng.for_each(s2, r, {in(id)}, [](idx, idx, idx) {});
    eng.reduce_sum(sr, r, {in(id)}, [](idx, idx, idx) { return 1.0; });
  };

  const auto gap = [&] {
    return eng.ledger().total(gpusim::TimeCategory::LaunchGap);
  };
  const double g0 = gap();
  pass();  // capture: per-kernel launch overhead
  const double capture_gap = gap() - g0;
  const i64 loops_captured = engine_counter(eng, "engine.loops");
  const i64 launches_captured = engine_counter(eng, "engine.launches");
  const i64 bytes_captured = engine_counter(eng, "engine.bytes_touched");
  pass();  // replay: one per-graph launch
  const double replay_gap = gap() - g0 - capture_gap;

  const double overhead = eng.config().device.launch_overhead_s;
  // DC model, manual memory: 3 synchronous launches while capturing...
  EXPECT_DOUBLE_EQ(capture_gap, 3.0 * overhead);
  // ...but a single graph launch while replaying.
  EXPECT_DOUBLE_EQ(replay_gap, overhead);

  const GraphStats st = eng.graph_stats();
  EXPECT_EQ(st.captures, 1);
  EXPECT_EQ(st.replays, 1);
  EXPECT_EQ(st.divergences, 0);
  EXPECT_EQ(st.replayed_ops, 3);
  EXPECT_DOUBLE_EQ(st.graph_launch_seconds, overhead);
  EXPECT_DOUBLE_EQ(st.kernel_launch_seconds_saved, 3.0 * overhead);

  // Replay changes launch accounting only: logical work counters advance
  // exactly as in the capture pass.
  EXPECT_EQ(engine_counter(eng, "engine.loops"), 2 * loops_captured);
  EXPECT_EQ(engine_counter(eng, "engine.launches"), 2 * launches_captured);
  EXPECT_EQ(engine_counter(eng, "engine.bytes_touched"), 2 * bytes_captured);

  const CapturedGraph* g = eng.find_graph("basic");
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->captured());
  EXPECT_EQ(g->size(), 3u);
  EXPECT_EQ(eng.find_graph("nonexistent"), nullptr);
}

TEST(GraphReplay, DivergenceInvalidatesAndRecaptures) {
  Engine eng(graph_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_div_1", SiteKind::ParallelLoop);
  static const KernelSite& s2 = SIMAS_SITE("graph_div_2", SiteKind::ParallelLoop);
  static const KernelSite& s3 = SIMAS_SITE("graph_div_3", SiteKind::ParallelLoop);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto body = [](idx, idx, idx) {};

  {
    Engine::GraphScope graph(eng, "div");
    eng.for_each(s1, r, {out(id)}, body);
    eng.for_each(s2, r, {in(id)}, body);
  }  // captured: [s1, s2]
  {
    Engine::GraphScope graph(eng, "div");
    eng.for_each(s1, r, {out(id)}, body);
    eng.for_each(s3, r, {in(id)}, body);  // mismatch -> diverge
  }
  GraphStats st = eng.graph_stats();
  EXPECT_EQ(st.captures, 1);
  EXPECT_EQ(st.replays, 1);
  EXPECT_EQ(st.divergences, 1);
  EXPECT_EQ(st.replayed_ops, 1);  // s1 matched before the divergence
  ASSERT_NE(eng.find_graph("div"), nullptr);
  EXPECT_FALSE(eng.find_graph("div")->captured());
  // Divergence never corrupts the work accounting: 4 loops, 4 launches.
  EXPECT_EQ(engine_counter(eng, "engine.loops"), 4);
  EXPECT_EQ(engine_counter(eng, "engine.launches"), 4);

  {
    Engine::GraphScope graph(eng, "div");  // re-capture the new sequence
    eng.for_each(s1, r, {out(id)}, body);
    eng.for_each(s3, r, {in(id)}, body);
  }
  {
    Engine::GraphScope graph(eng, "div");  // now replays cleanly
    eng.for_each(s1, r, {out(id)}, body);
    eng.for_each(s3, r, {in(id)}, body);
  }
  st = eng.graph_stats();
  EXPECT_EQ(st.captures, 2);
  EXPECT_EQ(st.replays, 2);
  EXPECT_EQ(st.divergences, 1);
}

TEST(GraphReplay, TruncatedReplayCountsAsDivergence) {
  Engine eng(graph_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_trunc_1", SiteKind::ParallelLoop);
  static const KernelSite& s2 = SIMAS_SITE("graph_trunc_2", SiteKind::ParallelLoop);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto body = [](idx, idx, idx) {};

  {
    Engine::GraphScope graph(eng, "trunc");
    eng.for_each(s1, r, {out(id)}, body);
    eng.for_each(s2, r, {in(id)}, body);
  }
  {
    Engine::GraphScope graph(eng, "trunc");
    eng.for_each(s1, r, {out(id)}, body);  // pass ends early
  }
  const GraphStats st = eng.graph_stats();
  EXPECT_EQ(st.divergences, 1);
  EXPECT_FALSE(eng.find_graph("trunc")->captured());
}

TEST(GraphReplay, CellCountChangeDiverges) {
  Engine eng(graph_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_cells", SiteKind::ParallelLoop);
  const auto body = [](idx, idx, idx) {};
  {
    Engine::GraphScope graph(eng, "cells");
    eng.for_each(s1, Range3{0, 8, 0, 8, 0, 8}, {out(id)}, body);
  }
  {
    Engine::GraphScope graph(eng, "cells");
    eng.for_each(s1, Range3{0, 4, 0, 8, 0, 8}, {out(id)}, body);
  }
  EXPECT_EQ(eng.graph_stats().divergences, 1);
}

TEST(GraphReplay, DisabledToggleIsBitIdenticalToNoScopes) {
  static const KernelSite& s1 = SIMAS_SITE("graph_toggle_1", SiteKind::ParallelLoop);
  static const KernelSite& sr =
      SIMAS_SITE("graph_toggle_red", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto body = [](idx, idx, idx) {};

  EngineConfig cfg = graph_config();
  cfg.graph_replay = false;
  Engine scoped(cfg);
  Engine plain(cfg);
  const auto ids = scoped.memory().register_array("a", 1 << 20);
  const auto idp = plain.memory().register_array("a", 1 << 20);
  for (int pass = 0; pass < 3; ++pass) {
    {
      Engine::GraphScope graph(scoped, "toggle");
      scoped.for_each(s1, r, {out(ids)}, body);
      scoped.reduce_sum(sr, r, {in(ids)}, [](idx, idx, idx) { return 1.0; });
    }
    plain.for_each(s1, r, {out(idp)}, body);
    plain.reduce_sum(sr, r, {in(idp)}, [](idx, idx, idx) { return 1.0; });
  }
  EXPECT_EQ(scoped.modeled_seconds(), plain.modeled_seconds());
  const GraphStats st = scoped.graph_stats();
  EXPECT_EQ(st.captures, 0);
  EXPECT_EQ(st.replays, 0);
  EXPECT_DOUBLE_EQ(st.kernel_launch_seconds_saved, 0.0);
  EXPECT_EQ(scoped.find_graph("toggle"), nullptr);
}

TEST(GraphReplay, InactiveOnCpuEngines) {
  EngineConfig cfg = graph_config();
  cfg.gpu = false;
  cfg.memory = gpusim::MemoryMode::HostOnly;
  cfg.device = gpusim::epyc7742_node();
  Engine eng(cfg);
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_cpu", SiteKind::ParallelLoop);
  for (int pass = 0; pass < 2; ++pass) {
    Engine::GraphScope graph(eng, "cpu");
    eng.for_each(s1, Range3{0, 4, 0, 4, 0, 4}, {out(id)},
                 [](idx, idx, idx) {});
  }
  const GraphStats st = eng.graph_stats();
  EXPECT_EQ(st.captures, 0);
  EXPECT_EQ(st.replays, 0);
}

TEST(GraphReplay, NestedScopesAreGovernedByTheOuterGraph) {
  Engine eng(graph_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_nest_1", SiteKind::ParallelLoop);
  static const KernelSite& s2 = SIMAS_SITE("graph_nest_2", SiteKind::ParallelLoop);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto body = [](idx, idx, idx) {};

  auto pass = [&] {
    Engine::GraphScope outer(eng, "outer");
    eng.for_each(s1, r, {out(id)}, body);
    {
      Engine::GraphScope inner(eng, "inner");  // absorbed into "outer"
      eng.for_each(s2, r, {in(id)}, body);
    }
  };
  pass();
  pass();
  EXPECT_EQ(eng.find_graph("inner"), nullptr);
  const CapturedGraph* outer = eng.find_graph("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->size(), 2u);
  const GraphStats st = eng.graph_stats();
  EXPECT_EQ(st.captures, 1);
  EXPECT_EQ(st.replays, 1);
  EXPECT_EQ(st.replayed_ops, 2);
}

TEST(GraphReplay, UnifiedMemoryKeepsInterKernelGapUnderReplay) {
  // Graphs eliminate launch submissions, not UM paging: replayed kernels
  // still pay um_kernel_gap_s between kernels (paper Fig. 4's UM gaps).
  Engine eng(graph_config(LoopModel::Dc2x, gpusim::MemoryMode::Unified));
  const auto id = eng.memory().register_array("a", 1 << 16);
  static const KernelSite& s1 = SIMAS_SITE("graph_um_1", SiteKind::ParallelLoop);
  static const KernelSite& s2 = SIMAS_SITE("graph_um_2", SiteKind::ParallelLoop);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto body = [](idx, idx, idx) {};

  auto pass = [&] {
    Engine::GraphScope graph(eng, "um");
    eng.for_each(s1, r, {out(id)}, body);
    eng.for_each(s2, r, {in(id)}, body);
  };
  const auto gap = [&] {
    return eng.ledger().total(gpusim::TimeCategory::LaunchGap);
  };
  pass();  // capture
  const double g1 = gap();
  pass();  // replay
  const double replay_gap = gap() - g1;

  const double overhead = eng.config().device.launch_overhead_s;
  const double um_gap = eng.config().device.um_kernel_gap_s;
  // One graph launch + the per-kernel UM gaps that replay cannot remove.
  EXPECT_DOUBLE_EQ(replay_gap, overhead + 2.0 * um_gap);
  EXPECT_DOUBLE_EQ(eng.graph_stats().kernel_launch_seconds_saved,
                   2.0 * overhead);
}

TEST(GraphReplay, TwoNamedGraphsCaptureIndependently) {
  // Per-instance graph names (viscosity vs conduction PCG) must not thrash
  // each other's captures on a shared engine.
  Engine eng(graph_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_multi_1", SiteKind::ParallelLoop);
  static const KernelSite& s2 = SIMAS_SITE("graph_multi_2", SiteKind::ParallelLoop);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto body = [](idx, idx, idx) {};

  for (int pass = 0; pass < 2; ++pass) {
    {
      Engine::GraphScope graph(eng, "visc/iter");
      eng.for_each(s1, r, {out(id)}, body);
    }
    {
      Engine::GraphScope graph(eng, "cond/iter");
      eng.for_each(s2, r, {in(id)}, body);
    }
  }
  const GraphStats st = eng.graph_stats();
  EXPECT_EQ(st.captures, 2);
  EXPECT_EQ(st.replays, 2);
  EXPECT_EQ(st.divergences, 0);
  EXPECT_TRUE(eng.find_graph("visc/iter")->captured());
  EXPECT_TRUE(eng.find_graph("cond/iter")->captured());
}

TEST(GraphReplay, ReplayedGraphLaunchAppearsInTrace) {
  Engine eng(graph_config());
  eng.tracer().enable(true);
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_trace_1", SiteKind::ParallelLoop);
  const Range3 r{0, 8, 0, 8, 0, 8};
  for (int pass = 0; pass < 2; ++pass) {
    Engine::GraphScope graph(eng, "traced");
    eng.for_each(s1, r, {out(id)}, [](idx, idx, idx) {});
  }
  bool found = false;
  for (const auto& e : eng.tracer().events())
    found |= (e.name == "graph:traced");
  EXPECT_TRUE(found);
}

TEST(GraphReplay, CacheSharesCapturesWithinOneScopeOnly) {
  GraphCache cache;
  static const KernelSite& s1 =
      SIMAS_SITE("graph_cache_scope_1", SiteKind::ParallelLoop);
  const auto run = [&](const std::string& scope) {
    EngineConfig cfg = graph_config();
    cfg.graph_cache = &cache;
    cfg.graph_cache_scope = scope;
    Engine eng(cfg);
    const auto id = eng.memory().register_array("a", 1 << 20);
    {
      Engine::GraphScope graph(eng, "pcg");
      eng.for_each(s1, Range3{0, 8, 0, 8, 0, 8}, {out(id)},
                   [](idx, idx, idx) {});
    }
    return eng.graph_stats();
  };

  const GraphStats first = run("shape/r0");  // cold: capture + publish
  EXPECT_EQ(first.captures, 1);
  EXPECT_EQ(first.cache_seeds, 0);
  const GraphStats second = run("shape/r0");  // same scope: replay pass one
  EXPECT_EQ(second.cache_seeds, 1);
  EXPECT_EQ(second.captures, 0);
  EXPECT_EQ(second.replays, 1);
  EXPECT_EQ(second.divergences, 0);
  const GraphStats other = run("shape/r1");  // another rank: its own capture
  EXPECT_EQ(other.cache_seeds, 0);
  EXPECT_EQ(other.captures, 1);

  const GraphCache::Stats st = cache.stats();
  EXPECT_EQ(st.publishes, 2);
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 2);
  EXPECT_EQ(st.duplicates, 0);
}

TEST(GraphCache, FullCacheEvictsTheLeastRecentlyUsedScope) {
  GraphCache cache;
  const auto scope = [](std::size_t i) { return "shape" + std::to_string(i); };
  CapturedGraph graph("pcg");
  graph.begin_capture();
  graph.finalize();
  const std::size_t n = GraphCache::kCapacity;
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_TRUE(cache.publish(scope(i), graph));
  EXPECT_EQ(cache.stats().evictions, 0);

  // A hit makes the oldest scope the most recently used, so scope 1 is
  // now the stalest and the N+1-th scope pushes it out.
  CapturedGraph out("");
  ASSERT_TRUE(cache.find(scope(0), "pcg", &out));
  EXPECT_EQ(out.name(), "pcg");
  EXPECT_TRUE(out.captured());
  ASSERT_TRUE(cache.publish(scope(n), graph));

  const GraphCache::Stats st = cache.stats();
  EXPECT_EQ(st.evictions, 1);
  EXPECT_EQ(st.publishes, static_cast<i64>(n) + 1);
  EXPECT_TRUE(cache.find(scope(0), "pcg", &out));
  EXPECT_FALSE(cache.find(scope(1), "pcg", &out));
  EXPECT_TRUE(cache.find(scope(2), "pcg", &out));
  EXPECT_TRUE(cache.find(scope(n), "pcg", &out));
  // A duplicate publish keeps the stored graph and evicts nothing.
  EXPECT_FALSE(cache.publish(scope(n), graph));
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().duplicates, 1);
}

}  // namespace
}  // namespace simas::par
