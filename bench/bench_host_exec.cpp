// Wall-clock benchmark of the *host execution layer*: how fast the real
// machine runs the kernels, as opposed to the modeled device time every
// other bench reports. Two workloads bracket the regimes the paper's
// launch-overhead story cares about:
//
//  * "solver" — full MasSolver steps on the bench grid (24x16x32), plus a
//    "solver_small" variant on an 8x8x8 grid. Hundreds of kernels per step
//    (including two PCG dot products per inner iteration); on the small
//    grid each kernel is a few microseconds of work, so wall-clock is
//    dominated by launch/dispatch cost: the pool's claim protocol,
//    per-launch allocation, and grain selection.
//  * "triad"  — a single 2^20-cell BabelStream-style triad loop, the
//    bandwidth-bound opposite extreme where dispatch should vanish.
//  * "dispatch" — a pool-level launch storm (64 tiny blocks per job) run
//    through both the shipped lock-free pool and a benchmark-local copy
//    of the mutex-per-block pool it replaced, so the before/after of the
//    work-distribution protocol is reproducible on any machine instead
//    of only against archived JSON.
//
// The sweep is threads x code versions for the solver and threads for the
// triad; results go to a machine-readable BENCH_host_exec.json so the
// perf trajectory of the execution layer can be tracked across commits.
//
//  * "flight recorder" — the cost of telemetry::FlightRecorder::record()
//    per call, measured directly and expressed as a fraction of the
//    lock-free pool's per-launch dispatch cost (one record per submitted
//    op is the always-on steady state). The bench *fails* (nonzero exit)
//    if that fraction exceeds --flight-overhead-max (default 1%) — the
//    "always on at O(1)" promise, guarded in CI's perf-smoke job.
//
// Usage:
//   bench_host_exec [--threads=1,2,4,8] [--versions=A,D2XU] [--steps=3]
//                   [--warmup=1] [--triad-iters=200] [--repeats=3]
//                   [--flight-overhead-max=0.01]
//                   [--out=BENCH_host_exec.json] [--help]
//
// Every measurement is repeated --repeats times and the minimum is kept
// (wall-clock noise is one-sided).

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "par/thread_pool.hpp"

#include "bench_support/host_threads.hpp"
#include "bench_support/run_experiment.hpp"
#include "par/engine.hpp"
#include "par/site_table.hpp"
#include "telemetry/flight_recorder.hpp"
#include "util/timer.hpp"
#include "variants/code_version.hpp"

using namespace simas;

namespace {

struct Options {
  std::vector<int> threads = {1, 2, 4, 8};
  std::vector<variants::CodeVersion> versions = {variants::CodeVersion::A,
                                                 variants::CodeVersion::D2XU};
  int steps = 3;
  int warmup = 1;
  int triad_iters = 200;
  int repeats = 3;
  double flight_overhead_max = 0.01;
  std::string out = "BENCH_host_exec.json";
  bool help = false;
};

constexpr const char* kUsage =
    "usage: bench_host_exec [options]\n"
    "  --threads=1,2,4,8          host thread counts to sweep\n"
    "  --versions=A,D2XU          code version tags for the solver sweep\n"
    "  --steps=3                  timed solver steps per point\n"
    "  --warmup=1                 untimed solver steps per point\n"
    "  --triad-iters=200          triad loop iterations per repeat\n"
    "  --repeats=3                repeats per measurement (minimum kept)\n"
    "  --flight-overhead-max=0.01 fail if one flight record costs more\n"
    "                             than this fraction of a dispatch\n"
    "  --out=BENCH_host_exec.json results file\n"
    "  --help, -h                 print this text and exit\n";

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) {
      parts.push_back(s.substr(pos));
      break;
    }
    parts.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return parts;
}

bool parse_version(const std::string& tag, variants::CodeVersion* out) {
  for (const auto v : variants::all_versions()) {
    if (tag == variants::version_tag(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--threads=")) {
      opt->threads.clear();
      for (const auto& t : split_csv(v)) opt->threads.push_back(std::stoi(t));
    } else if (const char* v2 = value("--versions=")) {
      opt->versions.clear();
      for (const auto& tag : split_csv(v2)) {
        variants::CodeVersion cv;
        if (!parse_version(tag, &cv)) {
          std::fprintf(stderr, "unknown code version tag: %s\n", tag.c_str());
          return false;
        }
        opt->versions.push_back(cv);
      }
    } else if (const char* v3 = value("--steps=")) {
      opt->steps = std::stoi(v3);
    } else if (const char* v4 = value("--warmup=")) {
      opt->warmup = std::stoi(v4);
    } else if (const char* v5 = value("--triad-iters=")) {
      opt->triad_iters = std::stoi(v5);
    } else if (const char* v6 = value("--repeats=")) {
      opt->repeats = std::stoi(v6);
    } else if (const char* v8 = value("--flight-overhead-max=")) {
      opt->flight_overhead_max = std::stod(v8);
    } else if (const char* v7 = value("--out=")) {
      opt->out = v7;
    } else if (arg == "--help" || arg == "-h") {
      opt->help = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n%s", arg.c_str(), kUsage);
      return false;
    }
  }
  return true;
}

struct SolverPoint {
  std::string workload;
  std::string version;
  int threads = 0;
  double host_seconds_per_step = 0.0;
  double modeled_seconds_per_step = 0.0;
  i64 kernel_launches = 0;
};

struct TriadPoint {
  int threads = 0;
  i64 cells = 0;
  double host_seconds_per_iter = 0.0;
  double cells_per_second = 0.0;
};

/// The launch-dominated regime: every kernel is ~500 cells of work, so
/// dispatch overhead is the dominant wall-clock term.
grid::GridConfig small_grid() {
  grid::GridConfig g;
  g.nr = 8;
  g.nt = 8;
  g.np = 8;
  g.r_stretch = 4.0;
  return g;
}

SolverPoint run_solver(const std::string& workload,
                       const grid::GridConfig& grid,
                       variants::CodeVersion version, int threads,
                       const Options& opt) {
  SolverPoint pt;
  pt.workload = workload;
  pt.version = variants::version_tag(version);
  pt.threads = threads;
  double best = -1.0;
  for (int rep = 0; rep < opt.repeats; ++rep) {
    bench_support::ExperimentConfig cfg;
    cfg.version = version;
    cfg.nranks = 1;
    cfg.grid = grid;
    cfg.warmup_steps = opt.warmup;
    cfg.measure_steps = opt.steps;
    cfg.host_threads_total = threads;
    const auto result = bench_support::run_experiment(cfg);
    if (best < 0.0 || result.host_seconds_per_step < best) {
      best = result.host_seconds_per_step;
      pt.modeled_seconds_per_step = result.ranks[0].seconds_per_step;
      pt.kernel_launches =
          result.ranks[0].metrics.counter("engine.launches");
    }
  }
  pt.host_seconds_per_step = best;
  return pt;
}

TriadPoint run_triad(int threads, const Options& opt) {
  constexpr idx kN = 1 << 20;
  TriadPoint pt;
  pt.threads = threads;
  pt.cells = kN;

  par::EngineConfig cfg;
  cfg.loops = par::LoopModel::Acc;
  cfg.memory = gpusim::MemoryMode::Manual;
  cfg.gpu = true;
  cfg.host_threads = threads;
  par::Engine eng(cfg);
  std::vector<real> a(kN, 1.0), b(kN, 2.0), c(kN, 0.0);
  const auto ia = eng.memory().register_array("bench_a", kN * 8);
  const auto ib = eng.memory().register_array("bench_b", kN * 8);
  const auto ic = eng.memory().register_array("bench_c", kN * 8);
  for (const auto id : {ia, ib, ic}) eng.memory().enter_data(id);
  static const par::KernelSite& site =
      SIMAS_SITE("bench_host_triad", par::SiteKind::ParallelLoop, 0);
  const real scalar = 0.4;
  const auto sweep = [&] {
    eng.for_each1(site, par::Range1{0, kN},
                  {par::in(ia), par::in(ib), par::out(ic)}, [&](idx i) {
                    c[static_cast<std::size_t>(i)] =
                        a[static_cast<std::size_t>(i)] +
                        scalar * b[static_cast<std::size_t>(i)];
                  });
  };
  // Warm the pool and the caches.
  for (int i = 0; i < 8; ++i) sweep();
  double best = -1.0;
  for (int rep = 0; rep < opt.repeats; ++rep) {
    Timer wall;
    for (int i = 0; i < opt.triad_iters; ++i) sweep();
    const double per_iter = wall.seconds() / opt.triad_iters;
    if (best < 0.0 || per_iter < best) best = per_iter;
  }
  pt.host_seconds_per_iter = best;
  pt.cells_per_second = static_cast<double>(kN) / best;
  return pt;
}

// ---------------------------------------------------------------------
// "dispatch" workload: the work-distribution protocol in isolation.

/// Benchmark-only reference: the mutex-per-block fork-join pool this
/// repo shipped before the lock-free rewrite (one lock acquisition per
/// block claim, another per completion count, std::function job
/// hand-off). Kept verbatim in behaviour so the dispatch comparison
/// stays reproducible without checking out old trees.
class LegacyPool {
 public:
  explicit LegacyPool(int nthreads) : nthreads_(std::max(1, nthreads)) {
    for (int t = 0; t < nthreads_ - 1; ++t)
      workers_.emplace_back([this] { worker_loop(); });
  }
  ~LegacyPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
  }
  LegacyPool(const LegacyPool&) = delete;
  LegacyPool& operator=(const LegacyPool&) = delete;

  void run_blocks(i64 nblocks, const std::function<void(i64)>& fn) {
    if (nblocks <= 0) return;
    if (nthreads_ == 1 || nblocks == 1) {
      for (i64 b = 0; b < nblocks; ++b) fn(b);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &fn;
      nblocks_ = nblocks;
      next_block_ = 0;
      blocks_done_ = 0;
      ++generation_;
    }
    cv_work_.notify_all();
    for (;;) {
      i64 block;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (next_block_ >= nblocks_) break;
        block = next_block_++;
      }
      (*job_)(block);
      std::lock_guard<std::mutex> lock(mutex_);
      if (++blocks_done_ == nblocks_) cv_done_.notify_all();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [this] { return blocks_done_ == nblocks_; });
    job_ = nullptr;
  }

 private:
  void worker_loop() {
    u64 seen_generation = 0;
    for (;;) {
      const std::function<void(i64)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_work_.wait(lock, [&] {
          return stop_ || (job_ != nullptr && generation_ != seen_generation &&
                           next_block_ < nblocks_);
        });
        if (stop_) return;
        seen_generation = generation_;
        job = job_;
      }
      for (;;) {
        i64 block;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (job_ != job || next_block_ >= nblocks_) break;
          block = next_block_++;
        }
        (*job)(block);
        std::lock_guard<std::mutex> lock(mutex_);
        if (++blocks_done_ == nblocks_) cv_done_.notify_all();
      }
    }
  }

  int nthreads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(i64)>* job_ = nullptr;
  i64 nblocks_ = 0;
  i64 next_block_ = 0;
  i64 blocks_done_ = 0;
  u64 generation_ = 0;
  bool stop_ = false;
};

struct DispatchPoint {
  std::string pool;
  int threads = 0;
  double host_seconds_per_launch = 0.0;
};

/// One job = 64 blocks of 8 cells each: the small-kernel solver regime.
/// The legacy pool is handed a fresh std::function per launch (as the
/// pre-rewrite engine did); the lock-free pool a fresh FunctionRef.
template <class Pool>
double time_dispatch(Pool& pool, int launches_per_rep, int repeats) {
  constexpr i64 kBlocks = 64;
  constexpr int kCellsPerBlock = 8;
  std::vector<real> slots(kBlocks * kCellsPerBlock, 0.0);
  const auto block_work = [&](i64 b) {
    real* s = &slots[static_cast<std::size_t>(b) * kCellsPerBlock];
    for (int i = 0; i < kCellsPerBlock; ++i)
      s[i] += 0.5 * static_cast<real>(i + b);
  };
  for (int i = 0; i < 32; ++i) pool.run_blocks(kBlocks, block_work);
  double best = -1.0;
  for (int rep = 0; rep < repeats; ++rep) {
    Timer wall;
    for (int l = 0; l < launches_per_rep; ++l)
      pool.run_blocks(kBlocks, block_work);
    const double per_launch = wall.seconds() / launches_per_rep;
    if (best < 0.0 || per_launch < best) best = per_launch;
  }
  return best;
}

/// Per-call cost of FlightRecorder::record() — the only instruction the
/// always-on flight recorder adds to Engine::submit (trace id 0 = the
/// tracing-off configuration). Min-of-repeats over a 1M-call storm.
double time_flight_record(const Options& opt) {
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::process();
  constexpr int kCalls = 1 << 20;
  // Warm the ring (touch every slot once).
  for (int i = 0; i < 1 << 14; ++i)
    fr.record(telemetry::FlightKind::Launch, 0, 0, 0.0, 0, 0, 512);
  double best = -1.0;
  for (int rep = 0; rep < opt.repeats * 3; ++rep) {
    Timer wall;
    for (int i = 0; i < kCalls; ++i)
      fr.record(telemetry::FlightKind::Launch, 0, 0, 0.0, 0, 0, 512);
    const double per_call = wall.seconds() / kCalls;
    if (best < 0.0 || per_call < best) best = per_call;
  }
  return best;
}

std::vector<DispatchPoint> run_dispatch(int threads, const Options& opt) {
  const int launches = std::max(200, opt.triad_iters * 10);
  // Repeats are cheap here (each is a pure launch storm), so sample 3x
  // more than the solver runs: min-of-N needs the larger N to shake off
  // scheduler noise on oversubscribed machines.
  const int repeats = opt.repeats * 3;
  DispatchPoint legacy, lockfree;
  legacy.pool = "legacy";
  legacy.threads = threads;
  {
    LegacyPool pool(threads);
    legacy.host_seconds_per_launch = time_dispatch(pool, launches, repeats);
  }
  lockfree.pool = "lockfree";
  lockfree.threads = threads;
  {
    par::ThreadPool pool(threads);
    lockfree.host_seconds_per_launch = time_dispatch(pool, launches, repeats);
  }
  return {legacy, lockfree};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return 2;
  if (opt.help) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  std::vector<SolverPoint> solver_points;
  const std::pair<const char*, grid::GridConfig> solver_workloads[] = {
      {"solver", bench_support::bench_grid()},
      {"solver_small", small_grid()},
  };
  for (const auto& [workload, grid] : solver_workloads) {
    for (const auto version : opt.versions) {
      for (const int t : opt.threads) {
        const SolverPoint pt = run_solver(workload, grid, version, t, opt);
        std::printf(
            "%-12s version=%-6s threads=%d  host %.3f ms/step  "
            "(modeled %.3f ms/step, %lld launches)\n",
            pt.workload.c_str(), pt.version.c_str(), pt.threads,
            pt.host_seconds_per_step * 1e3, pt.modeled_seconds_per_step * 1e3,
            static_cast<long long>(pt.kernel_launches));
        solver_points.push_back(pt);
      }
    }
  }

  std::vector<TriadPoint> triad_points;
  for (const int t : opt.threads) {
    const TriadPoint pt = run_triad(t, opt);
    std::printf("triad   threads=%d  host %.3f us/iter  (%.2f Mcells/s)\n",
                pt.threads, pt.host_seconds_per_iter * 1e6,
                pt.cells_per_second / 1e6);
    triad_points.push_back(pt);
  }

  std::vector<DispatchPoint> dispatch_points;
  for (const int t : opt.threads) {
    const auto pts = run_dispatch(t, opt);
    std::printf(
        "dispatch threads=%d  legacy %.3f us/launch  lockfree %.3f us/launch"
        "  (%.2fx)\n",
        t, pts[0].host_seconds_per_launch * 1e6,
        pts[1].host_seconds_per_launch * 1e6,
        pts[0].host_seconds_per_launch / pts[1].host_seconds_per_launch);
    dispatch_points.insert(dispatch_points.end(), pts.begin(), pts.end());
  }

  // Flight-recorder overhead: one record() per submitted op vs the
  // cheapest lock-free dispatch we just measured (the most adverse
  // denominator — tiny kernels, fastest pool config).
  const double sec_per_record = time_flight_record(opt);
  // Denominator: the cheapest lock-free launch that actually ran the
  // claim protocol (threads=1 short-circuits to a bare loop and measures
  // the kernel body, not dispatch; fall back to it only if it is all we
  // have).
  double fastest_dispatch = -1.0;
  for (const auto& p : dispatch_points)
    if (p.pool == "lockfree" && p.threads > 1 &&
        (fastest_dispatch < 0.0 ||
         p.host_seconds_per_launch < fastest_dispatch))
      fastest_dispatch = p.host_seconds_per_launch;
  if (fastest_dispatch < 0.0)
    for (const auto& p : dispatch_points)
      if (p.pool == "lockfree" &&
          (fastest_dispatch < 0.0 ||
           p.host_seconds_per_launch < fastest_dispatch))
        fastest_dispatch = p.host_seconds_per_launch;
  const double flight_fraction =
      fastest_dispatch > 0.0 ? sec_per_record / fastest_dispatch : 0.0;
  std::printf(
      "flight   record %.1f ns/event  (%.3f%% of a %.3f us lock-free "
      "dispatch; gate <= %.1f%%)\n",
      sec_per_record * 1e9, 100.0 * flight_fraction, fastest_dispatch * 1e6,
      100.0 * opt.flight_overhead_max);

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", opt.out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"host_exec\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"repeats\": %d,\n  \"solver\": [\n", opt.repeats);
  for (std::size_t i = 0; i < solver_points.size(); ++i) {
    const auto& p = solver_points[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"version\": \"%s\", "
                 "\"threads\": %d, "
                 "\"host_seconds_per_step\": %.9f, "
                 "\"modeled_seconds_per_step\": %.9f, "
                 "\"kernel_launches\": %lld}%s\n",
                 p.workload.c_str(), p.version.c_str(), p.threads,
                 p.host_seconds_per_step,
                 p.modeled_seconds_per_step,
                 static_cast<long long>(p.kernel_launches),
                 i + 1 < solver_points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"triad\": [\n");
  for (std::size_t i = 0; i < triad_points.size(); ++i) {
    const auto& p = triad_points[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"cells\": %lld, "
                 "\"host_seconds_per_iter\": %.9f, "
                 "\"cells_per_second\": %.1f}%s\n",
                 p.threads, static_cast<long long>(p.cells),
                 p.host_seconds_per_iter, p.cells_per_second,
                 i + 1 < triad_points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"dispatch\": [\n");
  for (std::size_t i = 0; i < dispatch_points.size(); ++i) {
    const auto& p = dispatch_points[i];
    std::fprintf(f,
                 "    {\"pool\": \"%s\", \"threads\": %d, "
                 "\"host_seconds_per_launch\": %.9f}%s\n",
                 p.pool.c_str(), p.threads, p.host_seconds_per_launch,
                 i + 1 < dispatch_points.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"flight_recorder\": {\"host_seconds_per_record\": "
               "%.12f, \"host_seconds_overhead_fraction\": %.6f, "
               "\"host_seconds_overhead_max\": %.6f}\n",
               sec_per_record, flight_fraction, opt.flight_overhead_max);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", opt.out.c_str());

  if (flight_fraction > opt.flight_overhead_max) {
    std::fprintf(stderr,
                 "FAIL: flight-recorder overhead %.3f%% of a lock-free "
                 "dispatch exceeds the %.1f%% gate\n",
                 100.0 * flight_fraction, 100.0 * opt.flight_overhead_max);
    return 1;
  }
  return 0;
}
