#pragma once
// The scheduler: the execution policy of the paper's code versions, as
// the consumer of the kernel-stream IR (par/stream.hpp).
//
// The Engine records ops; the Scheduler consumes them and drives the cost
// model, clock ledger, memory manager, site profiler and trace recorder.
// Every kernel op — launch or reduction — goes through one handler and
// one charge point. The code versions differ only in how loops are
// lowered, and that decision is plain data: par::lowering() folds loop
// model x device x memory mode x the ablation toggles x the compiler
// personality into one Lowering per engine, which also carries the
// per-kind rule (only plain launches fuse, go async and pay the Code-6
// wrapper traffic). The Scheduler charges ops under it, and the
// StreamChecker (analysis/static_verifier.hpp) reads the same value for
// its fusion chains and async queue:
//
//  * LoopModel::Acc    — OpenACC analog: consecutive same-group launches
//    merge into one kernel (fusion); async-capable launches hide part of
//    the launch latency (paper Sec. IV-B); array reductions are atomic.
//  * LoopModel::Dc2018 — `do concurrent` (F2018) analog: one synchronous
//    launch per loop (kernel fission); array reductions stay atomic.
//  * LoopModel::Dc2x   — Fortran 202X preview: adds the `reduce` clause;
//    array reductions flip the loop order (paper Listing 5) and avoid the
//    atomic read-modify-write traffic.
//
// The golden-equivalence test (tests/test_scheduler_golden.cpp) pins the
// resulting arithmetic against the seed engine for every loop model x
// memory mode x personality.

#include <string>

#include "gpusim/clock_ledger.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/memory_manager.hpp"
#include "par/compiler_personality.hpp"
#include "par/stream.hpp"
#include "telemetry/profiler.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"

namespace simas::par {

class SimContext;
class GraphCache;

enum class LoopModel { Acc, Dc2018, Dc2x };

const char* loop_model_name(LoopModel m);

struct EngineConfig {
  LoopModel loops = LoopModel::Acc;
  gpusim::MemoryMode memory = gpusim::MemoryMode::Manual;
  bool gpu = true;               ///< offload target is the device
  bool fusion_enabled = true;    ///< ACC kernel fusion (ablation toggle)
  bool async_enabled = true;     ///< ACC async launches (ablation toggle)
  /// CUDA-Graph-style capture/replay of repeated op sequences (the PCG
  /// inner iteration): per-graph instead of per-kernel launch overhead.
  bool graph_replay = false;
  /// Extra per-kernel traffic fraction from the array-creation/init
  /// wrapper routines of paper Code 6 (zero-init kernels the original
  /// code did not have).
  double wrapper_init_overhead = 0.0;
  /// Validate the op stream live: the StreamChecker's op-level checks
  /// (coherence, async queue, fusion chains) plus, in the SIMAS_SHADOW
  /// build flavour, the shadow Validator's element checks (access lists,
  /// DC legality, in-flight ghosts). Also enabled by the SIMAS_VALIDATE
  /// environment variable. Validation never changes modeled time.
  bool validate = false;
  /// Abort at Engine teardown if the validator recorded any errors
  /// (SIMAS_VALIDATE_FATAL). Reports drained via take_validation_report()
  /// before teardown do not trip this.
  bool validate_fatal = false;
  /// Check the full event stream — IR ops, Manual-mode data events, halo
  /// begin/finish windows — with the live analysis::StreamChecker that
  /// validation also builds, without the shadow Validator: the static
  /// verification read by Engine::static_verify(). O(1) per op, executes
  /// no kernel and never changes modeled time.
  bool check_stream = false;
  /// Overlapped halo exchange: HaloExchanger posts nonblocking sends on the
  /// rank's copy stream and the solver splits radial sweeps into interior
  /// (runs while halos are in flight) and boundary-shell launches. Never
  /// consulted by the Scheduler itself — accounting per op is unchanged;
  /// only the op sequence differs. Off = synchronous golden reference.
  bool overlap_halo = false;
  /// Span-driven unified-memory hints (cudaMemPrefetchAsync/cudaMemAdvise
  /// analogues): the scheduler bulk-prefetches each launch's declared
  /// access footprint ahead of the kernel (batched move, no per-page fault
  /// service), and the halo layer pins its staging buffers host-side and
  /// prefetches ghost spans around exchange windows. Off = the paper's
  /// demand-paged UM penalty, unchanged. No effect unless memory == Unified
  /// on a GPU; never changes physics.
  bool um_hints = false;
  int host_threads = 1;          ///< real execution threads for kernels
  gpusim::DeviceSpec device = gpusim::a100_40gb();
  /// How the modeled toolchain lowers loops, reductions and hints
  /// (par/compiler_personality.hpp). Nvfortran is the identity: it
  /// reproduces the pre-matrix scheduler arithmetic exactly. Personalities
  /// gate scheduler policy and hint lowering only — one kernel body per
  /// launch under every personality, so physics never changes.
  CompilerPersonality personality = CompilerPersonality::Nvfortran;

  // ---- Re-entrancy / service-layer wiring (see par/sim_context.hpp) ----
  /// Context the engine runs under: environment snapshot, site table,
  /// optional shared host pool (borrowed for kernel execution instead of
  /// owning host_threads workers; it must outlive the Engine). nullptr =
  /// SimContext::process() (the immutable process-default context).
  const SimContext* ctx = nullptr;
  /// Cross-engine captured-graph reuse: on first entry to a graph scope
  /// the engine seeds its local graph from cache[graph_cache_scope, name]
  /// (replay from pass one), and publishes its own finished captures
  /// back (first-wins). nullptr = engine-local graphs only.
  GraphCache* graph_cache = nullptr;
  /// Cache partition key: engines with equal scopes must record identical
  /// op sequences inside every graph scope (same code version, device,
  /// grid slab, rank).
  std::string graph_cache_scope;
  /// Distributed-trace identity (telemetry/trace_context.hpp): every flight
  /// recorder event this engine records carries this trace id, so a dump
  /// can be filtered to one job. 0 = untraced (the default; recording
  /// happens either way).
  u64 trace_id = 0;
  /// Simulated rank this engine runs as, stamped into flight-recorder
  /// events (mpisim rank-tagged spans). Purely observational.
  int flight_rank = 0;
};

/// How one engine configuration lowers loops, reductions and hints,
/// resolved once per engine by par::lowering(). The one place the
/// fusion, async and traffic rules of the code versions live, per site
/// and per kernel-op kind.
struct Lowering {
  /// Consecutive same-group launches may merge into one kernel: ACC on
  /// the device, fusion enabled, and a toolchain that fuses ACC regions.
  bool fusion = false;
  /// Async-capable launches hide part of their latency: ACC on the
  /// device, async enabled, and a toolchain with async queues.
  bool async = false;
  /// Manual data regions on the device (the coherence state machine).
  bool manual_gpu = false;
  /// Unified memory on the device (page engine, UM hints).
  bool unified_gpu = false;
  /// Traffic multiplier for array reductions: the personality's atomic
  /// form under ACC / DC 2018 (paper Listing 3), its `reduce` clause
  /// under DC 202X (Listing 5), 1.0 off the device.
  double array_reduce_traffic = 1.0;
  /// Traffic multiplier for plain launches: 1 + the Code-6 wrapper
  /// init overhead (EngineConfig::wrapper_init_overhead).
  double launch_traffic = 1.0;
  /// Hint lowering of the modeled toolchain. An ignored hint class is
  /// inert at run time, and the checker demotes its findings to notes.
  bool honors_mem_prefetch = true;
  bool honors_mem_advise = true;

  /// May a launch of `site` merge into the preceding launch, whose
  /// fusion group was `last_group` (0 = chain broken)?
  bool fuses(const KernelSite& site, int last_group) const {
    return fusion && site.fusion_group != 0 &&
           site.fusion_group == last_group;
  }
  /// Is a launch of `site` issued asynchronously?
  bool launches_async(const KernelSite& site) const {
    return async && site.async_capable;
  }

  // The per-kind rule. A reduction's result is consumed on the host, so
  // under every model it is synchronous and ends the fusion chain (the
  // DC reduce clause and the OpenACC reduction clause both imply the
  // dependency); only plain launches fuse, go async and pay the wrapper
  // traffic.

  /// `op` is a reduction: it ends the fusion chain and drains the async
  /// queue.
  static bool synchronizes(const KernelOp& op) {
    return op.kind != OpKind::Launch;
  }
  bool fuses(const KernelOp& op, int last_group) const {
    return !synchronizes(op) && fuses(*op.site, last_group);
  }
  bool launches_async(const KernelOp& op) const {
    return !synchronizes(op) && launches_async(*op.site);
  }
  /// The fusion group `op` leaves open for the next launch (0 = broken).
  static int chain_group(const KernelOp& op) {
    return synchronizes(op) ? 0 : op.site->fusion_group;
  }
  /// Multiplier on `op`'s modeled memory traffic.
  double traffic(const KernelOp& op) const {
    switch (op.kind) {
      case OpKind::Launch: return launch_traffic;
      case OpKind::ArrayReduce: return array_reduce_traffic;
      default: return 1.0;
    }
  }
};

/// Resolve the lowering of `cfg` (loop model x gpu x memory mode x
/// fusion/async toggles x personality_traits(cfg.personality)).
Lowering lowering(const EngineConfig& cfg);

/// Borrowed views of the per-rank accounting state a scheduler drives.
/// All pointers are non-null and outlive the scheduler (they are Engine
/// members).
struct SchedulerContext {
  const EngineConfig* cfg = nullptr;
  gpusim::CostModel* cost = nullptr;
  gpusim::ClockLedger* ledger = nullptr;
  gpusim::MemoryManager* mem = nullptr;
  trace::Recorder* tracer = nullptr;
  /// The one store of the per-kernel counts (see Engine::metrics_snapshot).
  telemetry::SiteProfiler* profiler = nullptr;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerContext ctx)
      : ctx_(ctx), lowering_(par::lowering(*ctx.cfg)) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// The lowering this scheduler charges under.
  const Lowering& lowering() const { return lowering_; }

  /// Account one op of the stream. Ops must be consumed in program order:
  /// fusion and unified-memory residency are stateful.
  void consume(const StreamOp& op);

  /// While active, per-kernel launch overhead is not charged (the kernels
  /// run inside a replayed graph); UM inter-kernel gaps remain.
  void set_replay_active(bool on) { replay_active_ = on; }
  /// Accumulated launch overhead elided by replay.
  double replay_launch_saved() const { return replay_launch_saved_; }

 private:
  /// The single charge point of every kernel op, launch or reduction:
  /// launch gap and traffic under the Lowering's per-kind rule, then the
  /// charged seconds' consumers (site profiler, trace recorder).
  void on_kernel(const KernelOp& op);
  /// UM prefetch/advise hint: drives the page engine and charges the
  /// batched prefetch cost. Hints never break fusion chains.
  void on_mem_hint(const MemHintOp& op);

  /// Sum the logical bytes the op touches and notify the memory manager
  /// (unified-memory page migration). Returns the byte total.
  i64 touch_accesses(const AccessList& accesses, i64 cells);

  SchedulerContext ctx_;
  Lowering lowering_;
  int last_fusion_group_ = 0;
  bool replay_active_ = false;
  double replay_launch_saved_ = 0.0;
};

}  // namespace simas::par
