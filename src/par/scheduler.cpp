#include "par/scheduler.hpp"

#include <algorithm>

namespace simas::par {

const char* loop_model_name(LoopModel m) {
  switch (m) {
    case LoopModel::Acc: return "acc";
    case LoopModel::Dc2018: return "dc2018";
    case LoopModel::Dc2x: return "dc2x";
  }
  return "?";
}

Lowering lowering(const EngineConfig& cfg) {
  const PersonalityTraits t = personality_traits(cfg.personality);
  const bool acc_gpu = cfg.gpu && cfg.loops == LoopModel::Acc;
  Lowering l;
  // Fusion chains and async queues exist only where the toolchain merges
  // consecutive ACC regions and keeps async queues (nvfortran); OpenMP-
  // target lowerings launch one synchronous region per construct, and DC
  // loops are one synchronous launch each (kernel fission).
  l.fusion = acc_gpu && cfg.fusion_enabled && t.fuses_acc_chains;
  l.async = acc_gpu && cfg.async_enabled && t.async_launches;
  l.manual_gpu = cfg.gpu && cfg.memory == gpusim::MemoryMode::Manual;
  l.unified_gpu = cfg.gpu && cfg.memory == gpusim::MemoryMode::Unified;
  // Atomic-update array reductions (ACC, DC 2018: paper Listing 3) pay the
  // toolchain's contention traffic (nvfortran: 1.35); the 202X reduce
  // clause is lowered by nvfortran as a flipped loop (Listing 5, 1.0) and
  // by other toolchains as trees or atomic blocks.
  if (cfg.gpu)
    l.array_reduce_traffic = cfg.loops == LoopModel::Dc2x
                                 ? t.reduce_clause_traffic
                                 : t.atomic_reduce_traffic;
  l.launch_traffic = 1.0 + cfg.wrapper_init_overhead;
  l.honors_mem_prefetch = t.honors_mem_prefetch;
  l.honors_mem_advise = t.honors_mem_advise;
  return l;
}

void Scheduler::consume(const StreamOp& op) {
  if (const KernelOp* k = kernel_op(op)) {
    on_kernel(*k);
  } else if (const auto* h = std::get_if<MemHintOp>(&op)) {
    on_mem_hint(*h);
  } else {
    // SyncOp and FusionBreakOp end the fusion chain. Draining the async
    // queue costs one launch latency on the GPU.
    last_fusion_group_ = 0;
    if (std::holds_alternative<SyncOp>(op) && ctx_.cfg->gpu)
      ctx_.ledger->advance(ctx_.cfg->device.launch_overhead_s * 0.5,
                           gpusim::TimeCategory::LaunchGap);
  }
}

i64 Scheduler::touch_accesses(const AccessList& accesses,
                              i64 cells) {
  i64 bytes = 0;
  for (const Access& a : accesses) {
    const i64 touched = std::min<i64>(cells * static_cast<i64>(sizeof(real)),
                                      ctx_.mem->record(a.id).bytes);
    bytes += touched;
    if (ctx_.cfg->gpu) {
      // Span-driven driver prefetch: move the declared footprint ahead of
      // the launch as one batched transfer, so the demand path below finds
      // the pages resident and no per-page fault service is charged. A
      // personality that ignores prefetch hints leaves the pages to
      // demand-fault exactly as if hints were off.
      if (ctx_.cfg->um_hints && lowering_.honors_mem_prefetch)
        ctx_.mem->mem_prefetch(a.id, touched, /*to_device=*/true,
                               gpusim::TimeCategory::DataMotion);
      ctx_.mem->on_device_access(a.id, touched,
                                 gpusim::TimeCategory::DataMotion, a.write);
    }
  }
  return bytes;
}

void Scheduler::on_mem_hint(const MemHintOp& op) {
  if (!lowering_.unified_gpu) return;
  // Hint lowering is a personality trait: a toolchain that ignores a hint
  // class accepts the call and does nothing — no page state change, no
  // time. The op stays in the recorded stream either way (the source is
  // the same; graph scopes are keyed by personality).
  const bool is_advise = op.hint == MemHint::AdviseReadMostly ||
                         op.hint == MemHint::AdvisePreferredHost;
  if (is_advise ? !lowering_.honors_mem_advise
                : !lowering_.honors_mem_prefetch)
    return;
  const double t0 = ctx_.ledger->now();
  switch (op.hint) {
    case MemHint::PrefetchToDevice:
      ctx_.mem->mem_prefetch(op.id, op.bytes, /*to_device=*/true, op.category);
      break;
    case MemHint::PrefetchToHost:
      ctx_.mem->mem_prefetch(op.id, op.bytes, /*to_device=*/false,
                             op.category);
      break;
    case MemHint::AdviseReadMostly:
      ctx_.mem->mem_advise(op.id, gpusim::UmAdvise::ReadMostly, op.category);
      break;
    case MemHint::AdvisePreferredHost:
      ctx_.mem->mem_advise(op.id, gpusim::UmAdvise::PreferredHost,
                           op.category);
      break;
  }
  const double t1 = ctx_.ledger->now();
  if (ctx_.tracer->enabled() && t1 > t0)
    ctx_.tracer->record(t0, t1, trace::Lane::UmHint,
                        std::string(mem_hint_name(op.hint)) + ":" +
                            ctx_.mem->record(op.id).name);
}

void Scheduler::on_kernel(const KernelOp& op) {
  const i64 bytes = touch_accesses(op.accesses, op.cells);
  const bool fused = lowering_.fuses(op, last_fusion_group_);
  last_fusion_group_ = Lowering::chain_group(op);
  const bool unified = lowering_.unified_gpu;
  const double t0 = ctx_.ledger->now();
  double launch = ctx_.cost->launch_time(fused, lowering_.launches_async(op),
                                         unified);
  if (replay_active_) {
    // Inside a replayed graph the kernel was pre-instantiated: no launch
    // submission cost. UM inter-kernel gaps are a paging artifact, not a
    // launch artifact, so they persist under graphs.
    const double graphed =
        unified ? ctx_.cost->device().um_kernel_gap_s : 0.0;
    replay_launch_saved_ += launch - graphed;
    launch = graphed;
  }
  ctx_.ledger->advance(launch, gpusim::TimeCategory::LaunchGap);
  ctx_.ledger->advance(
      ctx_.cost->kernel_time(bytes, op.scale) * lowering_.traffic(op),
      op.category);
  ctx_.profiler->record(*op.site, ctx_.ledger->now() - t0, op.cells, bytes,
                        fused, Lowering::synchronizes(op));
  if (ctx_.tracer->enabled())
    ctx_.tracer->record(t0, ctx_.ledger->now(), trace::Lane::Kernel,
                        op.site->name);
}

}  // namespace simas::par
