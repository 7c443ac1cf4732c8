#include "analysis/stream_capture.hpp"

namespace simas::analysis {

void StreamCapture::on_event(const par::OpEvent& ev) {
  if (ev.kind != par::OpEvent::Kind::Op) {
    remember_name(ev.id);
    events_.emplace_back(ev);
    return;
  }
  const par::StreamOp& op = *ev.op;
  // Copy via the concrete alternative, like CapturedGraph::append: GCC's
  // -Wmaybe-uninitialized false-fires on inactive variant alternatives.
  std::visit([this](const auto& o) { events_.emplace_back(par::StreamOp{o}); },
             op);
  if (const par::KernelOp* ko = par::kernel_op(op))
    for (const par::Access& a : ko->accesses) remember_name(a.id);
  if (const auto* mh = std::get_if<par::MemHintOp>(&op))
    remember_name(mh->id);
}

void StreamCapture::replay(par::OpObserver& obs) const {
  for (const StreamEvent& ev : events_) {
    if (const auto* op = std::get_if<par::StreamOp>(&ev)) {
      par::OpEvent e;
      e.op = op;
      obs.on_event(e);
    } else {
      obs.on_event(std::get<par::OpEvent>(ev));
    }
  }
}

const std::string& StreamCapture::array_name(gpusim::ArrayId id) const {
  static const std::string unknown = "?";
  const auto it = names_.find(id);
  return it == names_.end() ? unknown : it->second;
}

void StreamCapture::remember_name(gpusim::ArrayId id) {
  if (id == gpusim::kInvalidArray) return;
  if (names_.find(id) != names_.end()) return;
  names_.emplace(id, mem_.record(id).name);
}

}  // namespace simas::analysis
