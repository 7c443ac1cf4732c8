#pragma once
// Event-trace recording for ahead-of-run verification.
//
// The kernel-stream IR (par/stream.hpp) alone does not carry everything
// the paper's Sec. IV hazards live in: data-management directives and the
// begin/finish pairs of the overlapped halo exchange are separate event
// channels. The Engine merges all three into one ordered stream of
// par::OpEvents; StreamCapture is the observer that records it, copying
// each op (the event only borrows it).
//
// All channels fire on the rank thread, so the recorded order IS program
// order. verify_stream (analysis/static_verifier.hpp) replays the trace
// into a StreamChecker without executing a single kernel: O(stream size),
// not O(cells x steps).

#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "gpusim/memory_manager.hpp"
#include "par/stream.hpp"

namespace simas::analysis {

/// One recorded event: an owned copy of an op, or a non-op event (data
/// directive, halo begin/end) by value.
using StreamEvent = std::variant<par::StreamOp, par::OpEvent>;

class StreamCapture final : public par::OpObserver {
 public:
  /// `mem` resolves array names at record time (the verifier runs after
  /// the arrays may be gone). Must outlive the capture.
  explicit StreamCapture(const gpusim::MemoryManager& mem) : mem_(mem) {}

  void on_event(const par::OpEvent& ev) override;

  const std::vector<StreamEvent>& events() const { return events_; }
  /// Feed the recorded trace, in order, to `obs`.
  void replay(par::OpObserver& obs) const;
  /// Registered name of an array seen in the trace ("?" if never seen).
  const std::string& array_name(gpusim::ArrayId id) const;

 private:
  void remember_name(gpusim::ArrayId id);

  const gpusim::MemoryManager& mem_;
  std::vector<StreamEvent> events_;
  std::unordered_map<gpusim::ArrayId, std::string> names_;
};

}  // namespace simas::analysis
