// Ensemble workload: one client thread drives a JobServer in a closed loop.
// The admission queue holds one job and two workers run, so at most three
// jobs are outstanding; a rejected submit is retried after a short sleep.
// Three of every four jobs hit a prewarmed boundary shape (field and graph
// caches both hit); the fourth draws a fresh boundary seed, pays the PFSS
// solve and the graph capture, and publishes to both caches.

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench_support/run_experiment.hpp"
#include "par/graph_cache.hpp"
#include "service/job_server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace bs = simas::bench_support;

constexpr int kHotShapes = 4;
constexpr int kWorkers = 2;
constexpr int kPoolWidth = 2;
constexpr std::size_t kQueueCapacity = 1;
constexpr int kSetups = 3;
constexpr std::int64_t kMaxJobs = 4096;
constexpr int kWarmupSteps = 1;
constexpr int kMeasureSteps = 2;
constexpr double kHardCapSeconds = 120.0;

bs::ExperimentConfig job_config(std::uint64_t boundary_seed) {
  bs::ExperimentConfig c;
  c.version = simas::variants::CodeVersion::A;
  c.nranks = 2;
  c.grid.nr = 24;
  c.grid.nt = 16;
  c.grid.np = 32;
  c.grid.r_stretch = 4.0;
  c.warmup_steps = kWarmupSteps;
  c.measure_steps = kMeasureSteps;
  c.graph_replay = true;
  c.boundary.enabled = true;
  c.boundary.seed = boundary_seed;
  return c;
}

RunFingerprint fingerprint(const bs::ExperimentResult& r) {
  RunFingerprint fp;
  fp.diag = r.final_diag;
  for (const auto& rank : r.ranks)
    fp.modeled_seconds_per_step.push_back(rank.seconds_per_step);
  fp.pfss_iterations = r.pfss.iterations;
  return fp;
}

/// Serial references, run outside the timed window with no service layer.
/// A hit is compared with a run whose caches were filled by an earlier
/// serial run of the same config; a miss with a run that starts from empty
/// caches and publishes to them, as the served miss did.
struct References {
  std::map<std::uint64_t, bs::ExperimentResult> warm;  // by boundary seed

  const bs::ExperimentResult& hot(std::uint64_t seed) {
    auto it = warm.find(seed);
    if (it != warm.end()) return it->second;
    simas::par::GraphCache graphs;
    bs::BoundaryFields fields;
    bs::ExperimentConfig pre = job_config(seed);
    pre.host_threads_total = 2 * kPoolWidth;
    pre.graph_cache = &graphs;
    pre.boundary_out = &fields;
    (void)bs::run_experiment(pre);
    bs::ExperimentConfig again = pre;
    again.boundary_out = nullptr;
    again.boundary_fields = &fields;
    return warm.emplace(seed, bs::run_experiment(again)).first->second;
  }

  static bs::ExperimentResult cold(std::uint64_t seed) {
    simas::par::GraphCache graphs;
    bs::BoundaryFields fields;
    bs::ExperimentConfig c = job_config(seed);
    c.host_threads_total = 2 * kPoolWidth;
    c.graph_cache = &graphs;
    c.boundary_out = &fields;
    return bs::run_experiment(c);
  }
};

/// Per-job-step totals over a job's whole run (initialize, warm-up and
/// measured steps), summed over ranks.
struct JobCounts {
  double launches = 0, pool_jobs = 0, inline_kernels = 0, bytes_touched = 0;
  double halo_bytes = 0, modeled_ms = 0;

  static JobCounts of(const bs::ExperimentResult& r) {
    JobCounts c;
    constexpr double steps = kWarmupSteps + kMeasureSteps;
    for (const auto& rank : r.ranks) {
      const auto& m = rank.metrics;
      c.launches += static_cast<double>(m.counter("engine.launches")) / steps;
      c.pool_jobs += static_cast<double>(m.counter("pool.jobs")) / steps;
      c.inline_kernels +=
          static_cast<double>(m.counter("pool.inline_kernels")) / steps;
      c.bytes_touched +=
          static_cast<double>(m.counter("engine.bytes_touched")) / steps;
      c.halo_bytes += static_cast<double>(m.counter("halo.bytes_sent_r") +
                                          m.counter("halo.bytes_sent_phi")) /
                      steps;
      c.modeled_ms = std::max(c.modeled_ms, rank.seconds_per_step * 1e3);
    }
    return c;
  }
};

struct Submitted {
  double submit_at = 0.0;  ///< accepted, on the benchmark clock
  double first_try = 0.0;
  std::int64_t retries = 0;
};

}  // namespace

Outcome run_ensemble_workload(const Options& opt) {
  namespace svc = simas::service;
  const EnsemblePlan plan = ensemble_plan(opt.seed, kHotShapes, kMaxJobs);
  SpanRecorder rec;
  SpanRecorder* const tr = opt.trace ? &rec : nullptr;

  svc::JobServerConfig scfg;
  scfg.workers = kWorkers;
  scfg.queue_capacity = kQueueCapacity;
  scfg.host_threads_total = kPoolWidth;

  // Set-up: server start plus the prewarm of every hot shape, repeated;
  // the last server serves the run.
  Outcome out;
  std::vector<double> setup_s;
  std::unique_ptr<svc::JobServer> server;
  for (int k = 0; k < kSetups; ++k) {
    server.reset();
    const double t0 = now_seconds();
    server = std::make_unique<svc::JobServer>(scfg);
    const double t1 = now_seconds();
    const int setup =
        tr != nullptr ? tr->add("service.setup", t0, t0, -1, k, -1, 0) : -1;
    if (tr != nullptr) tr->add("service.server_ctor", t0, t1, setup, k, -1, 0);
    for (int h = 0; h < kHotShapes; ++h) {
      svc::JobDescription d;
      d.id = -1 - h;
      d.name = "prewarm";
      d.config = job_config(plan.hot_seeds[static_cast<std::size_t>(h)]);
      const double a = now_seconds();
      const svc::JobResult r = server->prewarm(std::move(d));
      if (tr != nullptr)
        tr->add("service.prewarm", a, now_seconds(), setup, k, h, 0);
      if (!r.ok) throw std::runtime_error("prewarm failed: " + r.error);
    }
    setup_s.push_back(now_seconds() - t0);
    if (tr != nullptr) tr->close(setup, now_seconds());
  }

  // Timed window: the closed loop. A traced run leaves the first half
  // untraced, for the overhead ratio.
  const auto graph0 = server->graph_cache().stats();
  const std::int64_t min_jobs = min_samples_for_tail(0.9);
  const double window0 = now_seconds();
  const double split = opt.trace ? opt.seconds / 2 : opt.seconds * 2;
  std::int64_t traced_from = -1;
  std::vector<Submitted> sub;
  for (const EnsembleJob& job : plan.jobs) {
    const double elapsed = now_seconds() - window0;
    if ((elapsed >= opt.seconds &&
         static_cast<std::int64_t>(sub.size()) >= min_jobs) ||
        elapsed >= kHardCapSeconds)
      break;
    if (traced_from < 0 && elapsed >= split) traced_from = job.id;
    svc::JobDescription d;
    d.id = job.id;
    d.name = job.miss ? "miss" : "hit";
    d.config = job_config(job.boundary_seed);
    Submitted s;
    s.first_try = now_seconds();
    while (!server->submit(d)) {
      ++s.retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    s.submit_at = now_seconds();
    sub.push_back(s);
  }
  const std::vector<svc::JobResult> results = server->drain();
  const double window_s = now_seconds() - window0;
  const double rss = peak_rss_mb();
  const auto graph1 = server->graph_cache().stats();
  server.reset();

  // Output check against serial references, outside the timed window.
  References refs;
  std::vector<double> latency_ms, step_ms;
  out.attempted = static_cast<std::int64_t>(sub.size());
  std::int64_t completed = 0;
  for (const svc::JobResult& r : results) {
    const EnsembleJob& job = plan.jobs.at(static_cast<std::size_t>(r.id));
    std::string why = r.ok ? "" : "job failed: " + r.error;
    if (r.ok) {
      const bs::ExperimentResult ref = job.miss
                                           ? References::cold(job.boundary_seed)
                                           : refs.hot(job.boundary_seed);
      why = compare_fingerprints(fingerprint(r.result), fingerprint(ref));
    }
    if (!why.empty()) {
      ++out.failed;
      if (out.problems.size() < 4)
        out.problems.push_back("job " + std::to_string(r.id) + ": " + why);
      continue;
    }
    ++completed;
    latency_ms.push_back(r.latency_seconds * 1e3);
    step_ms.push_back(r.result.host_seconds_per_step * 1e3);
  }
  out.failed += out.attempted - static_cast<std::int64_t>(results.size());

  const auto n = static_cast<std::int64_t>(latency_ms.size());
  if (!tail_ok(n, 0.9)) {
    out.consistent = false;
    out.problems.push_back("too few jobs for the p90 tails");
  }
  const double success =
      1.0 - static_cast<double>(out.failed) /
                static_cast<double>(std::max<std::int64_t>(out.attempted, 1));
  out.end_to_end = {
      {"setup_s", percentile(setup_s, 0.5), "s", kSetups},
      {"step_ms_p50", percentile(step_ms, 0.5), "ms", n},
      {"step_ms_p90", percentile(step_ms, 0.9), "ms", n},
      {"jobs_per_hour", static_cast<double>(completed) * 3600.0 / window_s,
       "1/h", completed},
      {"job_latency_ms_p50", percentile(latency_ms, 0.5), "ms", n},
      {"job_latency_ms_p90", percentile(latency_ms, 0.9), "ms", n},
      {"success_rate", success, "ratio", out.attempted},
      {"peak_rss_mb", rss, "MB", 1},
  };

  // Exact counts: the mean over the hot shapes of their serial warm
  // references, which every served hit reproduced.
  JobCounts hot;
  for (const std::uint64_t seed : plan.hot_seeds) {
    const JobCounts c = JobCounts::of(refs.hot(seed));
    hot.launches += c.launches / kHotShapes;
    hot.pool_jobs += c.pool_jobs / kHotShapes;
    hot.inline_kernels += c.inline_kernels / kHotShapes;
    hot.bytes_touched += c.bytes_touched / kHotShapes;
    hot.halo_bytes += c.halo_bytes / kHotShapes;
    hot.modeled_ms += c.modeled_ms / kHotShapes;
  }
  out.report = {
      {"exact", "{\"gpusim.modeled_ms_per_step\": " +
                    json_number(hot.modeled_ms) +
                    ", \"par.launches_per_step\": " +
                    json_number(hot.launches) + "}"},
      {"jobs", std::to_string(out.attempted)},
      {"misses", std::to_string(std::count_if(
                     plan.jobs.begin(), plan.jobs.begin() + out.attempted,
                     [](const EnsembleJob& j) { return j.miss; }))},
      {"error_rate", json_number(1.0 - success)},
      {"setup_s_samples", "[" + json_number(setup_s[0]) + ", " +
                              json_number(setup_s[1]) + ", " +
                              json_number(setup_s[2]) + "]"},
  };

  if (opt.trace) {
    if (traced_from < 0) traced_from = static_cast<std::int64_t>(sub.size());
    std::vector<double> queue_ms, run_hit, run_miss, lat_plain, lat_traced,
        pfss, skew_ms;
    std::int64_t traced_jobs = 0, field_used = 0, field_hits = 0, retries = 0;
    for (const svc::JobResult& r : results) {
      if (!r.ok) continue;
      const auto i = static_cast<std::size_t>(r.id);
      if (r.id < traced_from) {
        lat_plain.push_back(r.latency_seconds * 1e3);
        continue;
      }
      ++traced_jobs;
      lat_traced.push_back(r.latency_seconds * 1e3);
      queue_ms.push_back(r.queue_seconds * 1e3);
      (plan.jobs[i].miss ? run_miss : run_hit)
          .push_back(r.run_seconds * 1e3);
      if (plan.jobs[i].miss)
        pfss.push_back(static_cast<double>(r.result.pfss.iterations));
      field_used += r.field_cache_used ? 1 : 0;
      field_hits += r.field_cache_hit ? 1 : 0;
      retries += sub[i].retries;
      // Rank skew of the job: each rank thread times its own measured steps.
      double lo = r.result.ranks.front().host_seconds_per_step, hi = lo;
      for (const auto& rank : r.result.ranks) {
        lo = std::min(lo, rank.host_seconds_per_step);
        hi = std::max(hi, rank.host_seconds_per_step);
      }
      skew_ms.push_back((hi - lo) * 1e3);
      // Spans of the job, rebuilt from the server's own timing.
      const double t = sub[i].submit_at;
      rec.add("client.submit_wait", sub[i].first_try, t, -1, r.id, -1, 1);
      const int job = rec.add("service.job", t, t + r.latency_seconds, -1,
                              r.id, -1, 2 + static_cast<int>(r.id % 3));
      rec.add("service.queue", t, t + r.queue_seconds, job, r.id, -1,
              2 + static_cast<int>(r.id % 3));
      rec.add("service.run", t + r.queue_seconds,
              t + r.queue_seconds + r.run_seconds, job, r.id, -1,
              2 + static_cast<int>(r.id % 3));
    }
    double pfss_mean = 0.0;
    for (const double p : pfss) pfss_mean += p / static_cast<double>(pfss.size());
    const auto lookups = (graph1.hits - graph0.hits) +
                         (graph1.misses - graph0.misses);
    const double probe_us =
        launch_us(simas::variants::CodeVersion::A, kPoolWidth,
                  simas::par::Range3::cube(12, 16, 32));
    out.per_layer = {
        {"par.launches_per_step", hot.launches, "count", kHotShapes},
        {"par.pool_jobs_per_step", hot.pool_jobs, "count", kHotShapes},
        {"par.inline_kernels_per_step", hot.inline_kernels, "count",
         kHotShapes},
        {"par.launch_us", probe_us, "us", 9},
        {"par.graph_cache_hit_ratio",
         lookups > 0 ? static_cast<double>(graph1.hits - graph0.hits) /
                           static_cast<double>(lookups)
                     : 0.0,
         "ratio", lookups},
        {"solvers.pfss_iters_per_miss", pfss_mean, "count",
         static_cast<std::int64_t>(pfss.size())},
        {"gpusim.modeled_ms_per_step", hot.modeled_ms, "ms", kHotShapes},
        {"gpusim.bytes_touched_per_step", hot.bytes_touched, "B_computed",
         kHotShapes},
        {"mpisim.halo_bytes_per_step", hot.halo_bytes, "B", kHotShapes},
        {"mpisim.rank_skew_ms_p50", percentile(skew_ms, 0.5), "ms",
         traced_jobs},
        {"service.queue_ms_p50", percentile(queue_ms, 0.5), "ms",
         traced_jobs},
        {"service.run_ms_hit_p50", percentile(run_hit, 0.5), "ms",
         static_cast<std::int64_t>(run_hit.size())},
        {"service.run_ms_miss_p50", percentile(run_miss, 0.5), "ms",
         static_cast<std::int64_t>(run_miss.size())},
        {"service.field_cache_hit_ratio",
         field_used > 0 ? static_cast<double>(field_hits) /
                              static_cast<double>(field_used)
                        : 0.0,
         "ratio", field_used},
        {"service.submit_retries_per_job",
         traced_jobs > 0 ? static_cast<double>(retries) /
                               static_cast<double>(traced_jobs)
                         : 0.0,
         "count", traced_jobs},
        {"telemetry.flight_record_ns", flight_record_ns(), "ns", 9},
        {"telemetry.trace_overhead_frac",
         percentile(lat_traced, 0.5) / percentile(lat_plain, 0.5) - 1.0,
         "ratio", traced_jobs},
    };
    out.spans = rec.spans();
  }
  return out;
}

}  // namespace perfbench
