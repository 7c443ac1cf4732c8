#include "par/stream.hpp"

#include "par/site_table.hpp"

namespace simas::par {

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::Launch: return "launch";
    case OpKind::Reduce: return "reduce";
    case OpKind::ArrayReduce: return "array_reduce";
    case OpKind::Sync: return "sync";
    case OpKind::FusionBreak: return "fusion_break";
    case OpKind::MemHint: return "mem_hint";
  }
  return "?";
}

const char* mem_hint_name(MemHint h) {
  switch (h) {
    case MemHint::PrefetchToDevice: return "prefetch_to_device";
    case MemHint::PrefetchToHost: return "prefetch_to_host";
    case MemHint::AdviseReadMostly: return "advise_read_mostly";
    case MemHint::AdvisePreferredHost: return "advise_preferred_host";
  }
  return "?";
}

OpKind op_kind(const StreamOp& op) {
  switch (op.index()) {
    case 0: return std::get<KernelOp>(op).kind;
    case 1: return OpKind::Sync;
    case 2: return OpKind::FusionBreak;
    default: return OpKind::MemHint;
  }
}

const KernelOp* kernel_op(const StreamOp& op) {
  return std::get_if<KernelOp>(&op);
}

const KernelSite* op_site(const StreamOp& op) {
  if (const auto* m = std::get_if<MemHintOp>(&op)) return m->site;
  const KernelOp* k = kernel_op(op);
  return k ? k->site : nullptr;
}

i64 op_cells(const StreamOp& op) {
  const KernelOp* k = kernel_op(op);
  return k ? k->cells : 0;
}

bool same_signature(const StreamOp& a, const StreamOp& b) {
  if (op_kind(a) != op_kind(b) || op_site(a) != op_site(b) ||
      op_cells(a) != op_cells(b))
    return false;
  if (const auto* ma = std::get_if<MemHintOp>(&a)) {
    const auto* mb = std::get_if<MemHintOp>(&b);
    return ma->id == mb->id && ma->hint == mb->hint && ma->span == mb->span &&
           ma->bytes == mb->bytes;
  }
  return true;
}

std::vector<KernelSite> stream_sites() {
  return SiteTable::process().all();
}

}  // namespace simas::par
