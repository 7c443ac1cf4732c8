// Solver workloads. A run repeats whole solver runs ("episodes"): build the
// engine, communicator and solver, initialize(), take the warm-up steps
// (together the set-up), take the timed steps, and read the final
// diagnostics. Every episode of a run has the same input, so a single
// serial run_experiment of the same configuration is the reference for
// all of them, and the exact counts must agree between episodes.

#include <algorithm>
#include <stdexcept>

#include "bench_support/paper_scale.hpp"
#include "bench_support/run_experiment.hpp"
#include "gpusim/device_spec.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/decomposition.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using simas::variants::CodeVersion;

struct SolveSpec {
  CodeVersion version = CodeVersion::A;
  int nranks = 1;
  int threads_per_rank = 1;
  simas::grid::GridConfig grid;
  bool overlap_halo = false;
  bool um_hints = false;
  int warmup_steps = 1;
  int episode_steps = 8;
};

SolveSpec spec_for(const std::string& workload) {
  SolveSpec s;
  s.grid.r_stretch = 4.0;
  if (workload == "solve_large") {
    // Code A, manual memory, one rank: cell bodies and PCG dominate.
    s.version = CodeVersion::A;
    s.nranks = 1;
    s.threads_per_rank = 2;
    s.grid.nr = 36;
    s.grid.nt = 24;
    s.grid.np = 48;
    s.warmup_steps = 1;
    s.episode_steps = 8;
  } else if (workload == "solve_small_um") {
    // Code D2XU (pure do concurrent, unified memory): launch recording,
    // the cost model, UM pages and the halo path dominate. One rank: with
    // two, every halo wait hands the step to the host's wake-up latency,
    // and step_ms_p90 swung 10.7-32.3 ms between runs against 19.9-20.5 ms
    // for one rank on the same 4-core machine.
    s.version = CodeVersion::D2XU;
    s.nranks = 1;
    s.threads_per_rank = 1;
    s.grid.nr = 16;
    s.grid.nt = 8;
    s.grid.np = 16;
    s.overlap_halo = true;
    s.um_hints = true;
    s.warmup_steps = 2;
    s.episode_steps = 8;
  } else {
    throw std::invalid_argument("unknown solver workload " + workload);
  }
  return s;
}

/// Counter deltas over the timed steps of one rank.
struct LayerCounts {
  double launches = 0, pool_jobs = 0, inline_kernels = 0, bytes_touched = 0;
  double um_faults = 0, um_migrations = 0, um_prefetch_bytes = 0;
  double um_remote_bytes = 0, halo_bytes = 0;

  static LayerCounts of(const simas::telemetry::MetricsSnapshot& m) {
    LayerCounts c;
    c.launches = static_cast<double>(m.counter("engine.launches"));
    c.pool_jobs = static_cast<double>(m.counter("pool.jobs"));
    c.inline_kernels = static_cast<double>(m.counter("pool.inline_kernels"));
    c.bytes_touched = static_cast<double>(m.counter("engine.bytes_touched"));
    c.um_faults = static_cast<double>(m.counter("um.faults"));
    c.um_migrations = static_cast<double>(m.counter("um.migrations"));
    c.um_prefetch_bytes = static_cast<double>(m.counter("um.prefetch_bytes"));
    c.um_remote_bytes =
        static_cast<double>(m.counter("um.remote_access_bytes"));
    c.halo_bytes = static_cast<double>(m.counter("halo.bytes_sent_r") +
                                       m.counter("halo.bytes_sent_phi"));
    return c;
  }
  LayerCounts minus(const LayerCounts& o) const {
    return {launches - o.launches,           pool_jobs - o.pool_jobs,
            inline_kernels - o.inline_kernels, bytes_touched - o.bytes_touched,
            um_faults - o.um_faults,         um_migrations - o.um_migrations,
            um_prefetch_bytes - o.um_prefetch_bytes,
            um_remote_bytes - o.um_remote_bytes,
            halo_bytes - o.halo_bytes};
  }
  void add(const LayerCounts& o) {
    launches += o.launches;
    pool_jobs += o.pool_jobs;
    inline_kernels += o.inline_kernels;
    bytes_touched += o.bytes_touched;
    um_faults += o.um_faults;
    um_migrations += o.um_migrations;
    um_prefetch_bytes += o.um_prefetch_bytes;
    um_remote_bytes += o.um_remote_bytes;
    halo_bytes += o.halo_bytes;
  }
};

struct RankOut {
  double setup_done = 0.0;
  std::vector<double> step_s;
  std::int64_t pcg_iters = 0;
  double modeled_seconds_per_step = 0.0;
  LayerCounts counts;
  double initialize_s = 0.0;
  double diagnostics_s = 0.0;
  simas::mhd::GlobalDiagnostics diag;
};

struct Episode {
  double setup_s = 0.0;
  double latency_s = 0.0;
  std::vector<double> step_ms;  ///< slowest rank per step
  RunFingerprint fingerprint;
  std::int64_t pcg_iters = 0;
  LayerCounts counts;  ///< summed over ranks, over the timed steps
  double initialize_ms = 0.0;
  double diagnostics_ms = 0.0;
};

Episode run_episode(const SolveSpec& spec, const simas::mhd::SolverConfig& scfg,
                    std::int64_t index, SpanRecorder* rec) {
  namespace par = simas::par;
  const double t_start = now_seconds();
  const int root =
      rec != nullptr ? rec->open("bench.run", t_start, -1, index, -1, 0) : -1;
  const auto span = [&](const char* name, double a, double b, int parent,
                        std::int64_t step, int rank) {
    return rec != nullptr ? rec->add(name, a, b, parent, index, step, rank)
                          : -1;
  };

  const simas::bench_support::PaperScale scale;
  const simas::i64 cells =
      static_cast<simas::i64>(spec.grid.nr) * spec.grid.nt * spec.grid.np;
  std::vector<RankOut> out(static_cast<std::size_t>(spec.nranks));

  simas::mpisim::World world(spec.nranks);
  world.run([&](int rank) {
    RankOut& o = out[static_cast<std::size_t>(rank)];
    const int setup = span("bench.setup", t_start, t_start, root, -1, rank);
    const double s0 = now_seconds();
    par::EngineConfig ecfg = simas::variants::engine_config(
        spec.version, simas::gpusim::a100_40gb(), spec.threads_per_rank);
    ecfg.overlap_halo = spec.overlap_halo;
    ecfg.um_hints = spec.um_hints;
    ecfg.flight_rank = rank;
    par::Engine engine(ecfg);
    engine.cost().set_scales(scale.vol_scale(cells), scale.surf_scale(cells));
    engine.cost().set_working_set_shrink(static_cast<double>(spec.nranks));
    const double s1 = now_seconds();
    simas::mpisim::Comm comm(world, rank, engine);
    const double s2 = now_seconds();
    simas::mhd::MasSolver solver(engine, comm, scfg);
    const double s3 = now_seconds();
    solver.initialize();
    const double s4 = now_seconds();
    span("par.engine_ctor", s0, s1, setup, -1, rank);
    span("mpisim.comm_ctor", s1, s2, setup, -1, rank);
    span("mhd.solver_ctor", s2, s3, setup, -1, rank);
    span("mhd.initialize", s3, s4, setup, -1, rank);
    o.initialize_s = s4 - s3;
    for (int w = 0; w < spec.warmup_steps; ++w) {
      const double a = now_seconds();
      solver.step();
      span("mhd.warmup_step", a, now_seconds(), setup, w, rank);
    }
    o.setup_done = now_seconds();
    if (rec != nullptr) rec->close(setup, o.setup_done);

    const LayerCounts before = LayerCounts::of(engine.metrics_snapshot());
    const double modeled0 = engine.ledger().now();
    o.step_s.reserve(static_cast<std::size_t>(spec.episode_steps));
    for (int s = 0; s < spec.episode_steps; ++s) {
      const double a = now_seconds();
      const simas::mhd::StepStats st = solver.step();
      const double b = now_seconds();
      o.step_s.push_back(b - a);
      o.pcg_iters += st.viscosity_iters + st.conduction_iters;
      span("mhd.step", a, b, root, s, rank);
    }
    o.modeled_seconds_per_step =
        (engine.ledger().now() - modeled0) / spec.episode_steps;
    o.counts = LayerCounts::of(engine.metrics_snapshot()).minus(before);
    const double d0 = now_seconds();
    o.diag = solver.diagnostics();
    const double d1 = now_seconds();
    span("mhd.diagnostics", d0, d1, root, -1, rank);
    o.diagnostics_s = d1 - d0;
  });
  const double t_end = now_seconds();
  if (rec != nullptr) rec->close(root, t_end);

  Episode ep;
  ep.latency_s = t_end - t_start;
  for (const RankOut& o : out) {
    ep.setup_s = std::max(ep.setup_s, o.setup_done - t_start);
    ep.fingerprint.modeled_seconds_per_step.push_back(
        o.modeled_seconds_per_step);
    ep.counts.add(o.counts);
    ep.initialize_ms = std::max(ep.initialize_ms, o.initialize_s * 1e3);
    ep.diagnostics_ms = std::max(ep.diagnostics_ms, o.diagnostics_s * 1e3);
  }
  ep.fingerprint.diag = out[0].diag;
  ep.pcg_iters = out[0].pcg_iters;
  for (int s = 0; s < spec.episode_steps; ++s) {
    double slowest = 0.0;
    for (const RankOut& o : out)
      slowest = std::max(slowest, o.step_s[static_cast<std::size_t>(s)]);
    ep.step_ms.push_back(slowest * 1e3);
  }
  return ep;
}

/// The serial reference: run_experiment of the same configuration with
/// one host thread per rank.
RunFingerprint reference(const SolveSpec& spec,
                         const simas::mhd::SolverConfig& scfg) {
  simas::bench_support::ExperimentConfig cfg;
  cfg.version = spec.version;
  cfg.nranks = spec.nranks;
  cfg.grid = spec.grid;
  cfg.phys = scfg.phys;
  cfg.warmup_steps = spec.warmup_steps;
  cfg.measure_steps = spec.episode_steps;
  cfg.host_threads_total = spec.nranks;
  cfg.overlap_halo = spec.overlap_halo;
  cfg.um_hints = spec.um_hints;
  const auto r = simas::bench_support::run_experiment(cfg);
  RunFingerprint fp;
  fp.diag = r.final_diag;
  for (const auto& rank : r.ranks)
    fp.modeled_seconds_per_step.push_back(rank.seconds_per_step);
  return fp;
}

struct Phase {
  std::vector<Episode> episodes;
  double wall_s = 0.0;
  std::vector<double> step_ms;
};

/// Repeat episodes until `seconds` have passed and at least `min_steps`
/// steps were timed (or the hard cap is reached).
Phase run_phase(const SolveSpec& spec, const simas::mhd::SolverConfig& scfg,
                double seconds, std::int64_t min_steps, std::int64_t first,
                SpanRecorder* rec) {
  constexpr double kHardCapSeconds = 120.0;
  Phase ph;
  const double t0 = now_seconds();
  for (std::int64_t i = first;; ++i) {
    ph.episodes.push_back(run_episode(spec, scfg, i, rec));
    const Episode& ep = ph.episodes.back();
    ph.step_ms.insert(ph.step_ms.end(), ep.step_ms.begin(), ep.step_ms.end());
    const double elapsed = now_seconds() - t0;
    const auto steps = static_cast<std::int64_t>(ph.step_ms.size());
    if ((elapsed >= seconds && steps >= min_steps) ||
        elapsed >= kHardCapSeconds)
      break;
  }
  ph.wall_s = now_seconds() - t0;
  return ph;
}

std::vector<double> collect(const std::vector<Episode>& eps,
                            double Episode::*field) {
  std::vector<double> v;
  for (const Episode& e : eps) v.push_back(e.*field);
  return v;
}

}  // namespace

Outcome run_solver_workload(const Options& opt) {
  const SolveSpec spec = spec_for(opt.workload);
  const SolverInputs in = solver_inputs(opt.seed);
  simas::mhd::SolverConfig scfg;
  scfg.grid = spec.grid;
  scfg.phys.dipole_b0 = in.dipole_b0;
  scfg.phys.atm_scale = in.atm_scale;

  Outcome out;
  const std::int64_t min_steps = min_samples_for_tail(0.9);
  // A traced run spends half its time untraced, for the overhead ratio.
  SpanRecorder rec;
  const Phase plain = run_phase(spec, scfg, opt.trace ? opt.seconds / 2 : opt.seconds,
                                opt.trace ? 1 : min_steps, 0, nullptr);
  const double rss = peak_rss_mb();
  Phase traced;
  if (opt.trace)
    traced = run_phase(spec, scfg, opt.seconds / 2, 1,
                       static_cast<std::int64_t>(plain.episodes.size()), &rec);

  // Output check and exact counts, outside the timed window.
  const RunFingerprint ref = reference(spec, scfg);
  std::vector<const Episode*> all;
  for (const Episode& e : plain.episodes) all.push_back(&e);
  for (const Episode& e : traced.episodes) all.push_back(&e);
  const Episode& first = *all.front();
  for (const Episode* e : all) {
    out.attempted += spec.episode_steps;
    const std::string why = compare_fingerprints(e->fingerprint, ref);
    if (!why.empty()) {
      out.failed += spec.episode_steps;
      if (out.problems.size() < 4)
        out.problems.push_back("output check: " + why);
    }
    if (e->pcg_iters != first.pcg_iters ||
        e->counts.launches != first.counts.launches ||
        e->fingerprint.modeled_seconds_per_step !=
            first.fingerprint.modeled_seconds_per_step) {
      out.consistent = false;
      out.problems.push_back("exact counts drift between solver runs");
      break;
    }
  }

  const double steps = spec.episode_steps;
  const double modeled_ms =
      *std::max_element(first.fingerprint.modeled_seconds_per_step.begin(),
                        first.fingerprint.modeled_seconds_per_step.end()) *
      1e3;
  const double pcg_per_step = static_cast<double>(first.pcg_iters) / steps;
  const double launches_per_step = first.counts.launches / steps;

  const auto n_steps = static_cast<std::int64_t>(plain.step_ms.size());
  const auto n_eps = static_cast<std::int64_t>(plain.episodes.size());
  if (!opt.trace && !tail_ok(n_steps, 0.9)) {
    out.consistent = false;
    out.problems.push_back("too few steps for step_ms_p90");
  }
  const double success =
      1.0 - static_cast<double>(out.failed) /
                static_cast<double>(std::max<std::int64_t>(out.attempted, 1));
  out.end_to_end = {
      {"setup_s", percentile(collect(plain.episodes, &Episode::setup_s), 0.5),
       "s", n_eps},
      {"step_ms_p50", percentile(plain.step_ms, 0.5), "ms", n_steps},
      {"step_ms_p90", percentile(plain.step_ms, 0.9), "ms", n_steps},
      {"jobs_per_hour", static_cast<double>(n_eps) * 3600.0 / plain.wall_s,
       "1/h", n_eps},
      {"job_latency_ms_p50",
       percentile(collect(plain.episodes, &Episode::latency_s), 0.5) * 1e3,
       "ms", n_eps},
      {"job_latency_ms_p90",
       percentile(collect(plain.episodes, &Episode::latency_s), 0.9) * 1e3,
       "ms", n_eps},
      {"success_rate", success, "ratio", out.attempted},
      {"peak_rss_mb", rss, "MB", 1},
  };

  out.report = {
      {"exact",
       "{\"gpusim.modeled_ms_per_step\": " + json_number(modeled_ms) +
           ", \"solvers.pcg_iters_per_step\": " + json_number(pcg_per_step) +
           ", \"par.launches_per_step\": " + json_number(launches_per_step) +
           "}"},
      {"solver_runs", std::to_string(all.size())},
      {"steps_per_run", std::to_string(spec.episode_steps)},
      {"error_rate", json_number(1.0 - success)},
  };

  if (opt.trace) {
    const Episode& t = traced.episodes.front();
    const auto n_traced = static_cast<std::int64_t>(traced.step_ms.size());
    const auto nt_eps = static_cast<std::int64_t>(traced.episodes.size());
    const simas::mpisim::Slab slab =
        simas::mpisim::radial_slab(spec.grid.nr, spec.nranks, 0);
    const double probe_us = launch_us(
        spec.version, spec.threads_per_rank,
        simas::par::Range3::cube(slab.n(), spec.grid.nt, spec.grid.np));
    const double overhead =
        percentile(traced.step_ms, 0.5) / percentile(plain.step_ms, 0.5) - 1.0;
    out.per_layer = {
        {"par.launches_per_step", t.counts.launches / steps, "count", 1},
        {"par.pool_jobs_per_step", t.counts.pool_jobs / steps, "count", 1},
        {"par.inline_kernels_per_step", t.counts.inline_kernels / steps,
         "count", 1},
        {"par.launch_us", probe_us, "us", 9},
        {"mhd.initialize_ms",
         percentile(collect(traced.episodes, &Episode::initialize_ms), 0.5),
         "ms", nt_eps},
        {"mhd.diagnostics_ms",
         percentile(collect(traced.episodes, &Episode::diagnostics_ms), 0.5),
         "ms", nt_eps},
        {"solvers.pcg_iters_per_step", pcg_per_step, "count", 1},
        {"gpusim.modeled_ms_per_step", modeled_ms, "ms", 1},
        {"gpusim.bytes_touched_per_step", t.counts.bytes_touched / steps,
         "B_computed", 1},
        {"gpusim.um_faults_per_step", t.counts.um_faults / steps, "count", 1},
        {"gpusim.um_migrations_per_step", t.counts.um_migrations / steps,
         "count", 1},
        {"gpusim.um_prefetch_bytes_per_step",
         t.counts.um_prefetch_bytes / steps, "B", 1},
        {"gpusim.um_remote_bytes_per_step", t.counts.um_remote_bytes / steps,
         "B", 1},
        {"mpisim.halo_bytes_per_step", t.counts.halo_bytes / steps, "B", 1},
        {"telemetry.flight_record_ns", flight_record_ns(), "ns", 9},
        {"telemetry.trace_overhead_frac", overhead, "ratio", n_traced},
    };
    out.spans = rec.spans();
  }
  return out;
}

}  // namespace perfbench
