#include "analysis/static_verifier.hpp"

#include <algorithm>
#include <utility>

namespace simas::analysis {

namespace {

/// Does a prefetched span cover a subsequently accessed span? Spans are
/// coarse radial classes, so coverage is exact-match-or-Full: a Full
/// prefetch covers everything, and any span trivially covers itself.
/// Everything else leaves uncovered pages that still demand-fault.
bool span_covers(par::Span prefetched, par::Span accessed) {
  return prefetched == par::Span::Full || prefetched == accessed;
}

/// Does a declared span cover any radial ghost column currently posted?
bool span_hits_inflight(par::Span s, bool lo, bool hi) {
  switch (s) {
    case par::Span::Full: return lo || hi;
    case par::Span::GhostLo: return lo;
    case par::Span::GhostHi: return hi;
    case par::Span::Interior: return false;
  }
  return false;
}

/// Per-array digest of one op's access list: an AccessList may carry
/// separate in(f)/out(f) entries for the same array, so purity (pure read
/// vs pure write) is a property of the folded entry, not of one Access.
struct FoldedAccess {
  gpusim::ArrayId id = gpusim::kInvalidArray;
  bool read = false;
  bool write = false;
  bool scatter = false;
  par::Span read_span = par::Span::Full;
  par::Span write_span = par::Span::Full;
};

using FoldedList = SmallVec<FoldedAccess, 8>;

FoldedList fold_accesses(const par::AccessList& accesses) {
  FoldedList out;
  for (const par::Access& a : accesses) {
    FoldedAccess* f = nullptr;
    for (FoldedAccess& e : out)
      if (e.id == a.id) { f = &e; break; }
    if (f == nullptr) {
      out.push_back(FoldedAccess{a.id, false, false, false, a.span, a.span});
      f = &out[out.size() - 1];
    }
    if (a.write) {
      f->write = true;
      f->write_span = a.span;
      f->scatter = f->scatter || a.scatter;
    } else {
      f->read = true;
      f->read_span = a.span;
    }
  }
  return out;
}

}  // namespace

StreamChecker::StreamChecker(const par::Lowering& lowering, NameFn names)
    : lowering_(lowering), names_(std::move(names)) {}

void StreamChecker::on_event(const par::OpEvent& ev) {
  switch (ev.kind) {
    case par::OpEvent::Kind::Op:
      on_op(*ev.op);
      break;
    case par::OpEvent::Kind::Data:
      on_data_event(ev.data, ev.id);
      break;
    case par::OpEvent::Kind::HaloBegin: {
      ArrState& st = state_for(ev.id);
      st.inflight = true;
      st.inflight_lo = ev.lo_column >= 0;
      st.inflight_hi = ev.hi_column >= 0;
      break;
    }
    case par::OpEvent::Kind::HaloEnd: {
      ArrState& st = state_for(ev.id);
      st.inflight = false;
      st.inflight_lo = st.inflight_hi = false;
      break;
    }
  }
}

ValidationReport StreamChecker::report() const {
  ValidationReport r;
  r.diagnostics = diagnostics_;
  r.ops_checked = op_index_;
  return r;
}

bool StreamChecker::chain_wrote(gpusim::ArrayId id) const {
  return std::any_of(chain_written_.begin(), chain_written_.end(),
                     [id](const ChainWrite& cw) { return cw.id == id; });
}

StreamChecker::ArrState& StreamChecker::state_for(gpusim::ArrayId id) {
  auto it = arrays_.find(id);
  if (it == arrays_.end()) {
    it = arrays_.emplace(id, ArrState{}).first;
    it->second.name = names_(id);
  }
  return it->second;
}

void StreamChecker::reset_chain() {
  last_group_ = 0;
  ++chain_id_;
  op_slot_ = 0;
  chain_written_.clear();
}

void StreamChecker::drain_async_queue() {
  for (auto& [id, st] : arrays_) st.pending_async = false;
}

void StreamChecker::diagnose(Check check, const std::string& site,
                             const std::string& array, const char* message,
                             const par::KernelSite* where, bool demoted) {
  std::string key = std::string(check_name(check)) + '|' + site + '|' + array;
  const auto it = diag_index_.find(key);
  if (it != diag_index_.end()) {
    diagnostics_[it->second].count++;
    return;
  }
  Diagnostic d;
  d.check = check;
  d.severity = demoted ? Severity::Info : check_severity(check);
  d.site = site;
  d.array = array;
  if (where != nullptr) d.location = where->location();
  d.op_index = op_index_;
  d.message = message;
  diag_index_.emplace(std::move(key), diagnostics_.size());
  diagnostics_.push_back(std::move(d));
}

void StreamChecker::on_mem_hint(const par::MemHintOp& mh) {
  // Hints have no body and never break fusion chains; they only move the
  // per-array residency-hint state the kernel checks consume.
  ArrState& st = state_for(mh.id);
  switch (mh.hint) {
    case par::MemHint::PrefetchToDevice:
      st.prefetch_pending = true;
      st.prefetch_span = mh.span;
      st.paged_to_host = false;
      break;
    case par::MemHint::PrefetchToHost:
      st.prefetch_pending = false;
      st.paged_to_host = true;
      break;
    case par::MemHint::AdviseReadMostly:
      break;
    case par::MemHint::AdvisePreferredHost:
      // Pinned host-side: device touches become zero-copy remote
      // accesses, so "evicted" residency is the intended state. A
      // toolchain that ignores advise leaves the array unpinned — the
      // hint grants no exemption there.
      if (lowering_.honors_mem_advise) {
        st.preferred_host = true;
        st.prefetch_pending = false;
        st.paged_to_host = false;
      }
      break;
  }
}

void StreamChecker::on_op(const par::StreamOp& op) {
  ++op_index_;
  const par::OpKind kind = par::op_kind(op);

  if (kind == par::OpKind::Sync || kind == par::OpKind::FusionBreak) {
    // Both drain the single async queue: SyncOp is an explicit wait, and
    // every modeled MPI entry point captures its payload synchronously
    // behind a FusionBreakOp. Both end the open fusion chain.
    drain_async_queue();
    reset_chain();
    return;
  }
  if (kind == par::OpKind::MemHint) {
    on_mem_hint(std::get<par::MemHintOp>(op));
    return;
  }

  const par::KernelOp& ko = *par::kernel_op(op);
  const par::KernelSite* where = ko.site;
  const std::string& site = ko.site->name;
  const FoldedList folded = fold_accesses(ko.accesses);

  // Fusion-chain bookkeeping under the scheduler's own per-kind rule.
  const bool fused =
      lowering_.fuses(ko, last_group_) && op_slot_ < kMaxChainSlot;
  last_group_ = par::Lowering::chain_group(ko);
  if (fused) {
    ++op_slot_;
  } else {
    ++chain_id_;
    op_slot_ = 0;
    chain_written_.clear();
  }
  if (par::Lowering::synchronizes(ko)) {
    // The host consumes a reduction's result: drain the async queue.
    if (lowering_.launches_async(*ko.site)) {
      diagnose(Check::AsyncReductionNoWait, site, {},
               "reduction result is consumed on the host immediately, but "
               "the site is declared async-capable: under async launches "
               "the host would read the result before the kernel finished; "
               "mark the site async_capable=false or device_sync first",
               where);
    }
    drain_async_queue();
  }

  const bool launch_async = lowering_.launches_async(ko);

  for (const FoldedAccess& a : folded) {
    ArrState& st = state_for(a.id);
    // DC-legality: a scatter-declared write means several unordered
    // iterations may target one element — illegal in a plain parallel
    // loop (`do concurrent` forbids it; OpenACC races without atomic).
    // Atomic-update and reduction site kinds carry the protection the
    // declaration calls for.
    if (ko.kind == par::OpKind::Launch && a.write && a.scatter &&
        ko.site->kind != par::SiteKind::AtomicUpdate &&
        ko.site->kind != par::SiteKind::ArrayReduction) {
      diagnose(Check::DuplicateWrite, site, st.name,
               "declared scatter write in a plain parallel loop: several "
               "iterations may write one element, which is not legal "
               "`do concurrent` — use an atomic/reduction site kind or "
               "restructure the loop",
               where);
    }

    // Fused-chain races, from declared spans: an array pure-written by
    // an earlier kernel of this chain that this kernel pure-writes (WAW)
    // or pure-reads (RAW) on an overlapping span would race once the
    // chain fuses into one launch.
    if (fused && (a.write != a.read)) {
      for (const ChainWrite& cw : chain_written_) {
        if (cw.id != a.id) continue;
        const par::Span mine = a.write ? a.write_span : a.read_span;
        if (!par::spans_overlap(cw.span, mine)) continue;
        diagnose(Check::FusedConflict, site, st.name,
                 a.write
                     ? "declared write overlaps an array written by an "
                       "earlier kernel of the same ACC fusion group: "
                       "fusing them into one launch makes the write "
                       "order undefined (WAW race)"
                     : "declared read overlaps an array written by an "
                       "earlier kernel of the same ACC fusion group: "
                       "fusing them into one launch makes the read race "
                       "the producer (RAW race)",
                 where);
        break;
      }
    }

    // Unified-memory hint correctness. Every kernel access is a device
    // access, so it consumes the array's pending residency hints: a
    // device prefetch whose span does not cover this access left the
    // uncovered pages to demand-fault (the hint silently bought nothing),
    // and an access after a host-ward prefetch with no re-prefetch
    // demand-migrates the whole footprint back (ping-pong).
    // PreferredHost-advised arrays are exempt from the latter: their
    // device touches are intended zero-copy remote accesses.
    if (lowering_.unified_gpu) {
      if (st.prefetch_pending) {
        bool covered = true;
        if (a.read) covered = span_covers(st.prefetch_span, a.read_span);
        if (a.write)
          covered = covered && span_covers(st.prefetch_span, a.write_span);
        if (!covered) {
          diagnose(Check::PrefetchSpanMismatch, site, st.name,
                   lowering_.honors_mem_prefetch
                       ? "device prefetch span does not cover this "
                         "kernel's declared access span: the uncovered "
                         "pages still demand-fault, so the prefetch hides "
                         "nothing — widen the prefetch span or match it "
                         "to the access"
                       : "device prefetch span does not cover this "
                         "kernel's declared access span (note: the "
                         "modeled toolchain ignores prefetch hints, so "
                         "the hint is inert and the mismatch costs "
                         "nothing here — fix it for toolchains that "
                         "honor it)",
                   where, /*demoted=*/!lowering_.honors_mem_prefetch);
        }
        st.prefetch_pending = false;
      } else if (st.paged_to_host && !st.preferred_host) {
        diagnose(Check::UseAfterEvict, site, st.name,
                 lowering_.honors_mem_prefetch
                     ? "kernel accesses an array prefetched to the host "
                       "with no intervening device prefetch: every touch "
                       "is a fresh demand migration back (ping-pong) — "
                       "re-prefetch to the device before the launch, or "
                       "advise preferred-host if zero-copy access is "
                       "intended"
                     : "kernel accesses an array prefetched to the host "
                       "with no intervening device prefetch (note: the "
                       "modeled toolchain ignores prefetch hints, so no "
                       "eviction happened and no ping-pong occurs here — "
                       "fix it for toolchains that honor it)",
                 where, /*demoted=*/!lowering_.honors_mem_prefetch);
      }
      // Either way the demand touch re-establishes device residency.
      st.paged_to_host = false;
    }

    // In-flight ghost regions: any declared access whose radial span
    // covers a posted-but-unfinished ghost column races the recv.
    if (st.inflight &&
        ((a.read &&
          span_hits_inflight(a.read_span, st.inflight_lo, st.inflight_hi)) ||
         (a.write &&
          span_hits_inflight(a.write_span, st.inflight_lo, st.inflight_hi)))) {
      diagnose(Check::InflightGhostRead, site, st.name,
               "declared span covers a radial ghost column whose "
               "nonblocking halo exchange is still in flight: finish the "
               "exchange first, or declare an interior span if the kernel "
               "never touches the ghost columns",
               where);
    }
  }

  // Manual-mode coherence machine.
  if (lowering_.manual_gpu) {
    for (const par::Access& a : ko.accesses) {
      ArrState& st = state_for(a.id);
      if (!st.on_device) {
        diagnose(Check::KernelOutsideRegion, site, st.name,
                 "kernel accesses an array outside any data region: the "
                 "compiler would add an implicit per-kernel copy (correct "
                 "but slow) — wrap it in enter_data/exit_data",
                 where);
        continue;
      }
      if (a.write) {
        st.device_dirty = true;
        if (launch_async) st.pending_async = true;
      } else if (st.host_dirty) {
        diagnose(Check::StaleDeviceRead, site, st.name,
                 "device kernel reads an array whose host copy was "
                 "modified after the last update_device: the device sees "
                 "stale data",
                 where);
      }
    }
  }

  // Open the chain to this kernel's pure writes (declaration standing in
  // for the observed touch). A reduction's chain closes behind it.
  for (const FoldedAccess& a : folded) {
    if (!a.write || a.read || chain_wrote(a.id)) continue;
    chain_written_.push_back(ChainWrite{a.id, a.write_span});
  }
}

void StreamChecker::on_data_event(gpusim::DataEvent ev, gpusim::ArrayId id) {
  using gpusim::DataEvent;
  ArrState& st = state_for(id);
  const std::string& name = st.name;
  switch (ev) {
    case DataEvent::EnterData:
      st.on_device = true;
      st.host_dirty = false;
      st.device_dirty = false;
      break;
    case DataEvent::RedundantEnter:
      diagnose(Check::UnbalancedDataRegion, "enter_data", name,
               "enter_data on an array already inside a data region "
               "(unbalanced enter/exit pairs)");
      break;
    case DataEvent::ExitCopyOut:
      if (st.pending_async) {
        diagnose(Check::AsyncHostAccessNoSync, "exit_data", name,
                 "exit_data copies the array back while async device "
                 "writes are still in flight: device_sync first");
      }
      st.on_device = false;
      st.host_dirty = false;
      st.device_dirty = false;
      st.pending_async = false;
      break;
    case DataEvent::ExitDelete:
      if (st.device_dirty) {
        diagnose(Check::DiscardedDeviceWrites, "exit_data", name,
                 "exit_data(Delete) discards device writes that were "
                 "never copied back to the host");
      }
      st.on_device = false;
      st.device_dirty = false;
      st.pending_async = false;
      break;
    case DataEvent::ExitOutsideRegion:
      diagnose(Check::UnbalancedDataRegion, "exit_data", name,
               "exit_data without a matching enter_data (double exit?)");
      break;
    case DataEvent::UpdateDevice:
      st.host_dirty = false;
      break;
    case DataEvent::UpdateDeviceOutsideRegion:
      diagnose(Check::UnbalancedDataRegion, "update_device", name,
               "update_device outside a data region: the array is not "
               "present on the device");
      break;
    case DataEvent::UpdateHost:
      if (st.pending_async) {
        diagnose(Check::AsyncHostAccessNoSync, "update_host", name,
                 "update_host pulls data while async device writes are "
                 "still in flight on the queue: device_sync first (the "
                 "Sec. IV reduction/IO-before-wait bug)");
        st.pending_async = false;
      }
      st.device_dirty = false;
      break;
    case DataEvent::UpdateHostOutsideRegion:
      diagnose(Check::UnbalancedDataRegion, "update_host", name,
               "update_host outside a data region: the array is not "
               "present on the device");
      break;
    case DataEvent::UnregisterInRegion:
      if (st.device_dirty) {
        diagnose(Check::DiscardedDeviceWrites, "unregister_array", name,
                 "array storage freed while its device copy held writes "
                 "never copied back to the host");
      }
      diagnose(Check::UnbalancedDataRegion, "unregister_array", name,
               "array storage freed while still device-resident: the data "
               "region was never exited (implicit release)");
      st.on_device = false;
      st.device_dirty = false;
      st.pending_async = false;
      break;
    case DataEvent::HostRead:
      if (st.on_device && st.device_dirty) {
        diagnose(Check::StaleHostRead, "host-read", name,
                 "host-side code reads an array whose device copy was "
                 "modified after the last update_host: the host sees "
                 "stale data");
      }
      break;
    case DataEvent::HostWrite:
      if (st.on_device) st.host_dirty = true;
      break;
    case DataEvent::DeviceRead:
      if (st.on_device && st.host_dirty) {
        diagnose(Check::StaleDeviceRead, "device-read", name,
                 "device-side transfer reads an array whose host copy was "
                 "modified after the last update_device");
      }
      break;
    case DataEvent::DeviceWrite:
      if (st.on_device) st.device_dirty = true;
      break;
  }
}

}  // namespace simas::analysis
