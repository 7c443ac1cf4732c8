#pragma once
// Divergence flight recorder: a fixed-capacity ring of
// structured stream events that is always on at O(1) cost and is dumped
// to JSON — with SiteTable file:line provenance — only when something
// goes wrong (validator error, physics divergence, job failure) or when
// SIMAS_FLIGHT_DUMP requests an explicit dump.
//
// The event vocabulary mirrors the kernel-stream IR and the engine's
// par::OpEvent shapes: launches, reductions, syncs,
// fusion breaks, memory hints, halo windows, data-motion events, plus
// free-form notes for service-level incidents. Each event is a handful
// of integers — no strings, no allocation — so recording is one
// fetch_add, one load and a few atomic stores.
//
// Concurrency contract (TSan-clean by construction):
//  * every slot field is a std::atomic of a primitive type, so no access
//    is ever a data race;
//  * a writer takes a sequence number with fetch_add(relaxed) and claims
//    its slot once the slot's tag shows the previous lap's event
//    published (acquire load), marks it busy, stores the payload with
//    release stores, and publishes the tag (seq + 1) with a release
//    store. So no two writers ever fill one slot at once, and every slot
//    ends up holding its newest lap: a quiescent snapshot holds the whole
//    window;
//  * a writer whose slot still holds an unpublished older lap — a writer
//    stalled for a full ring lap between its fetch_add and its publish —
//    yields until that writer publishes, and bumps contended_waits(). A
//    second locked RMW to claim the slot (CAS) would double the cost of
//    every record to spare this rare wait;
//  * a reader (dump/snapshot) acquire-loads the tag, reads the payload,
//    issues an acquire fence and re-checks the tag — a slot claimed by a
//    lapping writer meanwhile is detected and skipped, never mis-decoded,
//    on weakly ordered CPUs too.
// Readers only run on the error path, so they can afford the re-check.

#include <atomic>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace simas::telemetry {

/// Event kinds. The first six mirror par::OpKind one-to-one; the rest
/// cover the observer callbacks and service-level notes.
enum class FlightKind : unsigned char {
  Launch = 0,
  Reduce = 1,
  ArrayReduce = 2,
  Sync = 3,
  FusionBreak = 4,
  MemHint = 5,
  HaloBegin = 6,
  HaloEnd = 7,
  DataEvent = 8,
  JobNote = 9,
};

const char* flight_kind_name(FlightKind k);

/// Detail codes for FlightKind::JobNote (stored in FlightEvent::detail).
enum class FlightNote : unsigned char {
  JobFailed = 0,
  PhysicsDivergence = 1,
  ValidatorError = 2,
  StaticVerifierError = 3,
  ExplicitDump = 4,
};

const char* flight_note_name(FlightNote n);

/// A decoded event, as returned by snapshot() and written by dump_json().
struct FlightEvent {
  u64 seq = 0;       ///< global sequence number (total order of recording)
  u64 trace_id = 0;  ///< owning trace, 0 when untraced
  double t = 0.0;    ///< modeled seconds on the recording engine's clock
  i64 payload = 0;   ///< cells / bytes / job id, by kind
  i32 site = -1;     ///< SiteTable id, -1 when the op carries no site
  i32 array = -1;    ///< first accessed array id, -1 when none
  i32 rank = 0;      ///< mpisim rank of the recording engine
  FlightKind kind = FlightKind::JobNote;
  unsigned char detail = 0;  ///< MemHint code / halo id low bits / FlightNote
};

class FlightRecorder {
 public:
  /// Ring capacity (power of two). 8192 events is ~30 modeled steps of a
  /// production stream — enough history to see what led up to a fault.
  static constexpr std::size_t kCapacity = 8192;

  /// `capacity` must be a power of two. The process recorder uses
  /// kCapacity; tests build small rings to force lapping.
  explicit FlightRecorder(std::size_t capacity = kCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder every Engine records into.
  static FlightRecorder& process();

  /// Recording on/off (on by default). Off turns record() into a single
  /// relaxed load — used by the overhead A/B in bench_host_exec.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Record one event. Allocation-free, O(1). The narrow fields are
  /// packed into two words so the hot path is one fetch_add, one load,
  /// six stores and the publish.
  void record(FlightKind kind, u64 trace_id, i32 rank, double t, i32 site,
              i32 array, i64 payload, unsigned char detail = 0) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    const u64 seq = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = ring_[seq & mask_];
    // Claim: the slot is ours once the previous lap (seq - capacity) has
    // published into it; tag 0 means never written (the first lap).
    const u64 prev = seq >= capacity_ ? seq - capacity_ + 1 : 0;
    if (s.tag.load(std::memory_order_acquire) != prev)
      wait_for_previous_lap(s, prev);
    s.tag.store(kBusy, std::memory_order_relaxed);
    if (hook_ != nullptr) hook_(seq);
    // Release payload stores (plain stores on x86): a reader whose load
    // sees any of them sees the busy tag on its fenced re-check.
    constexpr auto kRel = std::memory_order_release;
    s.trace_id.store(trace_id, kRel);
    s.t.store(t, kRel);
    s.payload.store(payload, kRel);
    s.ids.store(pack_ids(site, array), kRel);
    s.meta.store(pack_meta(rank, kind, detail), kRel);
    s.tag.store(seq + 1, kRel);
  }

  /// Convenience: record a service-level note (job failure, divergence).
  void note(FlightNote n, u64 trace_id, i64 payload = 0) {
    record(FlightKind::JobNote, trace_id, 0, 0.0, -1, -1, payload,
           static_cast<unsigned char>(n));
  }

  /// Total events recorded since construction (may exceed kCapacity).
  u64 recorded() const { return head_.load(std::memory_order_acquire); }
  /// Records that had to wait for a writer stalled a full lap behind
  /// (exported as flight.contended_waits).
  u64 contended_waits() const {
    return contended_waits_.load(std::memory_order_relaxed);
  }

  /// Test hook, called with a writer's seq between its claim and its
  /// publish, so a test can park a writer there and force lapping. Set it
  /// before any concurrent record(); nullptr (the default) disables it.
  using Hook = void (*)(u64 seq);
  void set_hook(Hook hook) { hook_ = hook; }

  /// Decode the currently retained window in sequence order. Slots being
  /// concurrently overwritten are skipped, not mis-decoded.
  std::vector<FlightEvent> snapshot() const;

  /// Dump the retained window as a JSON document: schema in DESIGN.md §18.
  /// Site ids are resolved to {name, "file:line"} via the process
  /// SiteTable at dump time.
  void dump_json(std::ostream& os, const std::string& reason) const;

  /// dump_json to a file; returns false (and stays silent) if the file
  /// cannot be opened — the flight recorder must never take a run down.
  bool dump_to_file(const std::string& path, const std::string& reason) const;

 private:
  /// Slot tag: 0 = never written, kBusy = a writer holds the slot,
  /// otherwise seq + 1 of the event it holds.
  static constexpr u64 kBusy = ~u64{0};

  /// site in the low word, array in the high word (both sign-extended on
  /// unpack so -1 round-trips).
  static constexpr u64 pack_ids(i32 site, i32 array) {
    return static_cast<u64>(static_cast<u32>(site)) |
           (static_cast<u64>(static_cast<u32>(array)) << 32);
  }
  /// rank in the low word, kind in bits 32..39, detail in bits 40..47.
  static constexpr u64 pack_meta(i32 rank, FlightKind kind,
                                 unsigned char detail) {
    return static_cast<u64>(static_cast<u32>(rank)) |
           (static_cast<u64>(static_cast<unsigned char>(kind)) << 32) |
           (static_cast<u64>(detail) << 40);
  }

  /// One cache line per slot: adjacent-slot false sharing would otherwise
  /// put two concurrent writers on the same line.
  struct alignas(64) Slot {
    std::atomic<u64> tag{0};
    std::atomic<u64> trace_id{0};
    std::atomic<double> t{0.0};
    std::atomic<i64> payload{0};
    std::atomic<u64> ids{pack_ids(-1, -1)};
    std::atomic<u64> meta{0};
  };

  /// Slow path of the claim: yield until the stalled previous-lap writer
  /// publishes `prev` into the slot.
  void wait_for_previous_lap(const Slot& s, u64 prev);

  std::size_t capacity_;
  u64 mask_;
  std::unique_ptr<Slot[]> ring_;
  std::atomic<u64> head_{0};
  std::atomic<u64> contended_waits_{0};
  std::atomic<bool> enabled_{true};
  Hook hook_ = nullptr;
};

}  // namespace simas::telemetry
