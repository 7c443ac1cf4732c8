#pragma once
// The stream checker: op-level race/coherence verification over the
// ordered event stream (par::OpEvent), fed live by its Engine
// (EngineConfig::check_stream or validation). It executes no kernel:
// O(stream size), not O(cells x steps).
//
// The checker keeps, in this one place, the op-level machinery every
// analysis needs — ACC fusion chains, the single async queue, the
// Manual-mode coherence state machine, halo begin/finish windows — and
// derives element-level conclusions from the declared radial spans and
// write patterns (par::Span / Access::scatter) instead of observed
// touches:
//
//   * WAW/RAW races across fused kernels: a kernel whose declared pure
//     write (or pure read) overlaps — by span — an array pure-written by
//     an earlier member of the same fusion chain (FusedConflict);
//   * DC-illegality: a scatter-declared write in a plain parallel loop,
//     where unordered iterations may hit one element (DuplicateWrite);
//   * reads of in-flight ghost regions: any declared access whose span
//     covers a radial ghost column posted by an unfinished overlapped
//     exchange (InflightGhostRead);
//   * host pulls without sync, async reductions, and the full Manual-mode
//     coherence machine — exact from the op stream alone (op_level()).
//
// The division of labor is: the checker TRUSTS declarations and flags
// conservatively; the shadow Validator (analysis/validator.hpp) VERIFIES
// declarations element-exactly, reading its chain positions from a live
// checker. On honestly-declared streams the static findings are a
// superset of the runtime findings (the differential harness in
// tests/test_static_verifier.cpp pins this); a lying declaration slips
// past the checker but is caught the first time the stream actually
// runs. Checks that need observed touches (UndeclaredAccess,
// DeclaredWriteNotTouched) are shadow-only — see the check matrix in
// DESIGN.md §15.

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "par/scheduler.hpp"
#include "par/stream.hpp"

namespace simas::analysis {

class StreamChecker final : public par::OpObserver {
 public:
  /// Resolves an array's registered name the first time the stream
  /// mentions it.
  using NameFn = std::function<std::string(gpusim::ArrayId)>;

  /// Check a stream recorded under `lowering` — the same value the
  /// engine's Scheduler charges under (par::lowering): a toolchain that
  /// never fuses cannot have fused-chain races, one that never launches
  /// async has no async queue, and one that ignores a hint class turns
  /// that class's correctness findings into notes.
  StreamChecker(const par::Lowering& lowering, NameFn names);

  void on_event(const par::OpEvent& ev) override;
  /// Every finding so far (ops_checked counts every op seen). Does not
  /// drain: findings accumulate for the checker's lifetime.
  ValidationReport report() const;
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  // ---- Chain position of the last op, for shadow element tags ----
  /// Fusion chain of the last op: one id per ACC chain (or per kernel
  /// when the lowering cannot fuse), bumped by every chain break.
  u64 chain_id() const { return chain_id_; }
  /// Position of the last kernel within its chain.
  u64 op_slot() const { return op_slot_; }
  /// Ops seen so far (1-based index of the last one).
  i64 ops() const { return op_index_; }
  /// `id` is pure-written by a kernel of the open chain.
  bool chain_wrote(gpusim::ArrayId id) const;

 private:
  struct ArrState {
    std::string name;
    bool on_device = false;
    bool host_dirty = false;
    bool device_dirty = false;
    bool pending_async = false;
    bool inflight = false;
    bool inflight_lo = false;
    bool inflight_hi = false;
    // -- Unified-memory hint state (Unified mode only) --
    bool preferred_host = false;   ///< advised AdvisePreferredHost
    bool prefetch_pending = false; ///< device prefetch not yet consumed
    par::Span prefetch_span = par::Span::Full;
    bool paged_to_host = false;    ///< last residency hint was host-ward
  };

  /// An array pure-written by an earlier kernel of the open fusion chain.
  struct ChainWrite {
    gpusim::ArrayId id;
    par::Span span;
  };

  ArrState& state_for(gpusim::ArrayId id);
  void reset_chain();
  void drain_async_queue();
  /// `where` supplies the file:line provenance; `demoted` drops the
  /// finding to an Info note (the modeled toolchain ignores the hint
  /// class, so the hazard cannot cost anything under this personality).
  void diagnose(Check check, const std::string& site,
                const std::string& array, const char* message,
                const par::KernelSite* where = nullptr,
                bool demoted = false);
  void on_op(const par::StreamOp& op);
  void on_mem_hint(const par::MemHintOp& mh);
  void on_data_event(gpusim::DataEvent ev, gpusim::ArrayId id);

  /// Shadow element tags encode a kernel's chain position in 8 bits, so
  /// a fused chain is cut after this many members (a tag limit, not a
  /// lowering rule).
  static constexpr u64 kMaxChainSlot = 255;

  par::Lowering lowering_;
  NameFn names_;

  std::unordered_map<gpusim::ArrayId, ArrState> arrays_;
  int last_group_ = 0;
  u64 chain_id_ = 1;
  u64 op_slot_ = 0;
  std::vector<ChainWrite> chain_written_;
  i64 op_index_ = 0;

  std::unordered_map<std::string, std::size_t> diag_index_;
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace simas::analysis
