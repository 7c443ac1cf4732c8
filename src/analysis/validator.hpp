#pragma once
// Shadow validator: the element-exact half of kernel-stream validation
// ("simas-lint"), run alongside a live StreamChecker.
//
// The Engine owns one Validator when EngineConfig::validate is on (or the
// SIMAS_VALIDATE environment variable is set) in the SIMAS_SHADOW build
// flavour; plain builds have no element shadow and run no Validator. It
// sits on the engine's observer list after the StreamChecker and is fed:
//   * every kernel op (the op whose body executes next) and every halo
//     begin/end, via on_event();
//   * the execution window of each kernel body, via body_begin()/body_end();
//   * a ShadowSlot per Field-backed array (analysis/shadow.hpp), through
//     which Array3 reports which elements a body actually touches.
//
// It keeps only the checks that need observed touches; every op-level
// check (coherence, async queue, fusion chains) lives in the checker:
//   1. Access-list verifier: the set of arrays a body touched is diffed
//      against the op's declared Access list — undeclared touches are the
//      missing-data-clause bug (UndeclaredAccess); declared-but-untouched
//      writes inflate the cost model (DeclaredWriteNotTouched).
//   2. Element tags: duplicate writes within one iteration space (illegal
//      `do concurrent`, DuplicateWrite), element conflicts across kernels
//      of one ACC fusion chain (FusedConflict), and touches of in-flight
//      ghost columns (InflightGhostRead). Chain ids and op slots are read
//      from the checker, so both halves agree on what fuses.
//
// The validator never touches the clock ledger: modeled time is identical
// with validation on or off.

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/shadow.hpp"
#include "gpusim/memory_manager.hpp"
#include "par/stream.hpp"

namespace simas::analysis {

class StreamChecker;

class Validator final : public par::OpObserver {
 public:
  /// Both references are Engine members and outlive the validator; the
  /// checker must observe each op before the validator does.
  Validator(const StreamChecker& chain, const gpusim::MemoryManager& mem);
  ~Validator() override;
  Validator(const Validator&) = delete;
  Validator& operator=(const Validator&) = delete;

  /// Kernel ops arm the next body; halo begin/end mark the in-flight
  /// radial ghost columns (any body access to column off % radial_stride
  /// in {lo_column, hi_column} is an InflightGhostRead).
  void on_event(const par::OpEvent& ev) override;
  /// Bracket the execution of the body belonging to the last kernel op.
  void body_begin();
  void body_end();
  /// Sequence number of the armed window started by the last body_begin.
  /// The Engine's execute loops publish it (with the validator identity)
  /// in the thread-local iteration tag, so shadow slots can reject
  /// iteration ids from other engines or stale windows when several
  /// engines share one ThreadPool.
  u64 current_window() const { return window_seq_; }

  // ---- Shadow attachment (called by Field construction/destruction) ----
  ShadowSlot* attach_shadow(gpusim::ArrayId id, std::size_t elements);
  void detach_shadow(gpusim::ArrayId id);

  /// Drain the shadow findings (tests consume diagnostics before Engine
  /// teardown; a drained validator never trips the fatal-at-destruction
  /// path).
  ValidationReport take();

 private:
  friend class ShadowSlot;

  struct ArrayState {
    std::string name;
    std::size_t elements = 0;  ///< allocation size, for the tag vector
    std::unique_ptr<ShadowSlot> slot;
    std::unique_ptr<std::vector<std::atomic<u64>>> tags;
  };

  void diagnose(Check check, const std::string& array, const char* message,
                bool with_location);
  /// Conflict sink for ShadowSlot::note_element (runs on pool threads).
  void report_conflict(const ShadowSlot& slot, u64 prev_tag, u64 new_tag);
  /// Sink for ShadowSlot::note_inflight (runs on pool threads).
  void report_inflight(const ShadowSlot& slot);

  const StreamChecker& chain_;
  const gpusim::MemoryManager& mem_;

  std::unordered_map<gpusim::ArrayId, ArrayState> arrays_;

  // The kernel op whose body executes next.
  struct PendingKernel {
    const par::KernelSite* site = nullptr;
    par::OpKind kind = par::OpKind::Launch;
    i64 cells = 0;
    par::AccessList accesses;
    bool valid = false;
  };
  PendingKernel pending_;
  bool armed_ = false;
  u64 window_seq_ = 0;  ///< armed-window sequence (see current_window())
  std::string current_site_;      ///< site name during body execution
  std::string current_location_;  ///< its registering file:line

  // Findings, folded per (check, site, array). The mutex only guards the
  // diagnostic map: element tagging itself is lock-free.
  mutable std::mutex diag_mutex_;
  std::unordered_map<std::string, std::size_t> diag_index_;
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace simas::analysis
