#include "analysis/validator.hpp"

#include <utility>

#include "analysis/static_verifier.hpp"

namespace simas::analysis {

namespace {

// Element-tag layout: [chain_id:24][op_slot:8][iteration+1:32]. The chain
// id identifies one ACC fusion chain (or one kernel, under the DC models);
// the op slot orders kernels within a chain; the iteration distinguishes
// loop iterations within a kernel.
constexpr u64 chain_of(u64 tag) { return tag >> 40; }
constexpr u64 slot_of(u64 tag) { return (tag >> 32) & 0xffu; }

}  // namespace

void ShadowSlot::note_element(std::size_t off) {
  // Only honor iteration ids published for *this* slot's validator and
  // for the *currently armed* window: a pool thread may carry a tag from
  // another engine (shared ThreadPool) or from an earlier body (tags are
  // never cleared), and stamping foreign/stale ids into the element tags
  // would manufacture conflicts no single-engine run could produce.
  const IterationTag& t = tl_iteration_tag;
  if (t.owner != owner_ ||
      t.window != armed_window_.load(std::memory_order_relaxed))
    return;
  const u64 iter = t.iteration;
  if (iter == 0 || tags_ == nullptr) return;
  auto& tags = *tags_;
  if (off >= tags.size()) return;
  if (mode_.load(std::memory_order_relaxed) == Mode::WriteTrack) {
    const u64 mine = chain_tag_ | iter;
    const u64 prev = tags[off].exchange(mine, std::memory_order_relaxed);
    if (prev != 0 && prev != mine && chain_of(prev) == chain_of(mine))
      owner_->report_conflict(*this, prev, mine);
  } else {  // ReadCheck: flag reads of elements written earlier this chain
    const u64 prev = tags[off].load(std::memory_order_relaxed);
    if (prev != 0 && chain_of(prev) == chain_of(chain_tag_) &&
        slot_of(prev) != slot_of(chain_tag_))
      owner_->report_conflict(*this, prev, chain_tag_ | iter);
  }
}

void ShadowSlot::note_inflight(std::size_t off) {
  if (inflight_stride_ == 0) return;
  const int col = static_cast<int>(off % inflight_stride_);
  if (col != inflight_lo_ && col != inflight_hi_) return;
  owner_->report_inflight(*this);
}

Validator::Validator(const StreamChecker& chain,
                     const gpusim::MemoryManager& mem)
    : chain_(chain), mem_(mem) {}

Validator::~Validator() = default;

void Validator::diagnose(Check check, const std::string& array,
                         const char* message, bool with_location) {
  std::lock_guard<std::mutex> lock(diag_mutex_);
  std::string key =
      std::string(check_name(check)) + '|' + current_site_ + '|' + array;
  const auto it = diag_index_.find(key);
  if (it != diag_index_.end()) {
    diagnostics_[it->second].count++;
    return;
  }
  Diagnostic d;
  d.check = check;
  d.severity = check_severity(check);
  d.site = current_site_;
  d.array = array;
  if (with_location) d.location = current_location_;
  d.op_index = chain_.ops();
  d.message = message;
  diag_index_.emplace(std::move(key), diagnostics_.size());
  diagnostics_.push_back(std::move(d));
}

void Validator::on_event(const par::OpEvent& ev) {
  switch (ev.kind) {
    case par::OpEvent::Kind::Op:
      // Remember the kernel op whose body executes next; any other op
      // clears it.
      if (const par::KernelOp* ko = par::kernel_op(*ev.op)) {
        pending_.site = ko->site;
        pending_.kind = ko->kind;
        pending_.cells = ko->cells;
        pending_.accesses = ko->accesses;
        pending_.valid = true;
      } else if (par::op_kind(*ev.op) != par::OpKind::MemHint) {
        pending_.valid = false;
      }
      break;
    case par::OpEvent::Kind::HaloBegin: {
      const auto it = arrays_.find(ev.id);
      if (it == arrays_.end() || !it->second.slot) break;
      ShadowSlot& s = *it->second.slot;
      s.inflight_stride_ = ev.radial_stride;
      s.inflight_lo_ = ev.lo_column;
      s.inflight_hi_ = ev.hi_column;
      s.inflight_.store(true, std::memory_order_release);
      break;
    }
    case par::OpEvent::Kind::HaloEnd: {
      const auto it = arrays_.find(ev.id);
      if (it != arrays_.end() && it->second.slot)
        it->second.slot->inflight_.store(false, std::memory_order_release);
      break;
    }
    case par::OpEvent::Kind::Data:
      break;
  }
}

void Validator::body_begin() {
  if (!pending_.valid || pending_.cells <= 0) {
    armed_ = false;
    return;
  }
  armed_ = true;
  // New armed window: iteration ids published by the engine's execute
  // loops for this body carry this sequence number; note_element ignores
  // every other (owner, window) pair.
  ++window_seq_;
  current_site_ = pending_.site->name;
  current_location_ = pending_.site->location();
  const u64 chain_tag = ((chain_.chain_id() & 0xffffffu) << 40) |
                        ((chain_.op_slot() & 0xffu) << 32);
  for (auto& [id, st] : arrays_) {
    if (!st.slot) continue;
    ShadowSlot& s = *st.slot;
    s.touched_.store(false, std::memory_order_relaxed);
    s.armed_window_.store(window_seq_, std::memory_order_relaxed);
    bool declared_r = false, declared_w = false;
    for (const par::Access& a : pending_.accesses)
      if (a.id == id) (a.write ? declared_w : declared_r) = true;
    // Element tagging applies to loop launches and array reductions — the
    // entry points whose execute loops publish iteration ids. Scalar
    // reductions only get the touched/declared diff.
    const bool tagged_kind = pending_.kind == par::OpKind::Launch ||
                             pending_.kind == par::OpKind::ArrayReduce;
    ShadowSlot::Mode m = ShadowSlot::Mode::Touch;
    if (!tagged_kind) {
      // keep Touch
    } else if (declared_w && !declared_r) {
      // Pure write declaration: under `do concurrent` no element may be
      // written by two iterations, and no other kernel of the same fused
      // launch may touch the same element.
      m = ShadowSlot::Mode::WriteTrack;
    } else if (declared_r && !declared_w && chain_.chain_wrote(id)) {
      // Pure read of an array written earlier in this fusion chain: fusing
      // the kernels makes element overlap a read-after-write race.
      m = ShadowSlot::Mode::ReadCheck;
    }
    if (m != ShadowSlot::Mode::Touch) {
      if (!st.tags)
        st.tags =
            std::make_unique<std::vector<std::atomic<u64>>>(st.elements);
      s.tags_ = st.tags.get();
      s.chain_tag_ = chain_tag;
    }
    s.mode_.store(m, std::memory_order_relaxed);
  }
}

void Validator::body_end() {
  if (!armed_) {
    pending_.valid = false;
    return;
  }
  for (auto& [id, st] : arrays_) {
    if (!st.slot) continue;
    ShadowSlot& s = *st.slot;
    s.mode_.store(ShadowSlot::Mode::Idle, std::memory_order_relaxed);
    const bool touched = s.touched_.load(std::memory_order_relaxed);
    bool declared_r = false, declared_w = false;
    for (const par::Access& a : pending_.accesses)
      if (a.id == id) (a.write ? declared_w : declared_r) = true;
    if (touched && !declared_r && !declared_w) {
      diagnose(Check::UndeclaredAccess, st.name,
               "kernel body touched an array missing from its Access "
               "list: a `default(present)` region would fault and the "
               "traffic model undercounts (the Sec. IV missing-data-"
               "clause bug)",
               /*with_location=*/false);
    }
    if (!touched && declared_w) {
      diagnose(Check::DeclaredWriteNotTouched, st.name,
               "declared write was never touched by the body: the copy "
               "clause and the cost model charge traffic that does not "
               "exist",
               /*with_location=*/false);
    }
  }
  armed_ = false;
  pending_.valid = false;
}

void Validator::report_conflict(const ShadowSlot& slot, u64 prev_tag,
                                u64 new_tag) {
  std::string array;
  const auto it = arrays_.find(slot.array_id_);
  if (it != arrays_.end()) array = it->second.name;
  if (slot_of(prev_tag) == slot_of(new_tag)) {
    diagnose(Check::DuplicateWrite, array,
             "two iterations of one parallel loop wrote the same element: "
             "the loop is not legal `do concurrent` (unordered iterations "
             "race on the element)",
             /*with_location=*/true);
  } else {
    diagnose(Check::FusedConflict, array,
             "element written by an earlier kernel of the same ACC fusion "
             "group is touched again by this kernel: fusing them into one "
             "launch introduces a race",
             /*with_location=*/true);
  }
}

void Validator::report_inflight(const ShadowSlot& slot) {
  std::string array;
  const auto it = arrays_.find(slot.array_id_);
  if (it != arrays_.end()) array = it->second.name;
  diagnose(Check::InflightGhostRead, array,
           "kernel touches a radial ghost plane whose nonblocking halo "
           "exchange is still in flight: the unpack has not run, so the "
           "value read races with the unfinished recv — finish the "
           "exchange first, or restrict the kernel to the interior",
           /*with_location=*/true);
}

ShadowSlot* Validator::attach_shadow(gpusim::ArrayId id,
                                     std::size_t elements) {
  ArrayState& st = arrays_[id];
  st.name = mem_.record(id).name;
  st.elements = elements;
  st.slot = std::make_unique<ShadowSlot>();
  st.slot->owner_ = this;
  st.slot->array_id_ = id;
  return st.slot.get();
}

void Validator::detach_shadow(gpusim::ArrayId id) {
  const auto it = arrays_.find(id);
  if (it == arrays_.end()) return;
  it->second.slot.reset();
  it->second.tags.reset();
}

ValidationReport Validator::take() {
  std::lock_guard<std::mutex> lock(diag_mutex_);
  ValidationReport r;
  r.diagnostics = std::move(diagnostics_);
  r.ops_checked = chain_.ops();
  diagnostics_.clear();
  diag_index_.clear();
  return r;
}

}  // namespace simas::analysis
