// The deterministic-simulation coordinator (see converse/sim.h for the
// user-facing story).
//
// Execution model: PE threads stay real OS threads, but a single "baton"
// serializes them — exactly one PE runs at any instant, and every handoff
// happens at an instrumented point (after a dispatch, at a Cth suspend, when
// a PE blocks for the network).  The coordinator picks the next PE to run
// uniformly from the runnable set with one seeded PRNG, so the entire
// schedule is a pure function of the seed.  Because all cross-PE state is
// only ever touched by the baton holder, and the baton moves through mu_
// (unlock in the yielding thread, lock in the granted one), every access is
// ordered by that mutex: the design is data-race-free without making any
// per-PE field atomic.
//
// Time is virtual: sends are stamped now + model latency (+ injected delay)
// into the destination's timed queue, and the clock jumps forward only when
// every live PE is blocked, directly to the earliest pending arrival.  When
// there is no pending arrival either, the machine is globally quiescent —
// the coordinator raises every PE's scheduler-exit flag (or reports a
// deadlock, see BlockForNet).
//
// Since only the baton holder runs, every PE thread is pinned to one CPU
// (the one the machine was built on, see PinToSimCpu): a handoff is then a
// same-CPU context switch instead of a cross-CPU wakeup, whose idle-exit
// latency would otherwise dominate the wall time of a long run.
//
// Lock ordering: mu_ before any PeState::mu, never the reverse.  Machine
// code calls into the coordinator only while holding no PE mutex.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "converse/sim.h"
#include "converse/util/rng.h"

namespace converse::detail {

class Machine;
struct PeState;

class SimCoordinator {
 public:
  SimCoordinator(Machine& m, const SimConfig& cfg);

  // ---- PE thread lifecycle (called from Machine::Run) ----
  /// Register this PE and block until the coordinator grants it the baton.
  /// The first grant waits for all npes PEs, so OS thread startup order
  /// cannot leak into the schedule.  Throws MachineAborted on abort.
  void PeStart(PeState& pe);
  /// The PE's entry returned (or unwound): release the baton for good.
  void PeFinish(PeState& pe);

  // ---- instrumented points (called from machine/scheduler/cth) ----
  /// Offer a handoff; returns with the baton re-granted (possibly without
  /// ever giving it up).  Silently returns in abort mode — this is reachable
  /// from fiber context, where throwing would escape the fiber entry.
  void YieldPoint(PeState& pe);
  /// The PE has nothing deliverable: release the baton until a message is
  /// deliverable or a quiescence exit is pending.  Throws MachineAborted on
  /// abort or on detected deadlock.
  void BlockForNet(PeState& pe);

  // ---- send path (called from SendOwnedFrom; takes ownership of msg) ----
  /// `extra_delay_us` is the caller-requested timer offset of a delayed
  /// send (CmiSyncSendDelayedAndFree); it adds to the model latency and any
  /// injected delay.  Self-sends (dest == src) never cross a network, so
  /// the fault injector leaves them alone — that makes delayed self-sends a
  /// reliable virtual-time timer even under fault injection.
  void Send(PeState& src, int dest_pe, void* msg, double extra_delay_us = 0.0);
  /// Immediate-lane sends are never faulted or delayed; only traced.
  void RecordImmediateSend(PeState& src, int dest_pe, const void* msg);
  /// Trace one network delivery about to be dispatched on `pe`.
  void RecordDeliver(PeState& pe, const void* msg);
  /// Fold a module-defined decision into the event-trace hash (e.g. the
  /// seed balancer's steal/rebalance choices), so a replay that diverges in
  /// module behavior diverges in trace hash even when the wire traffic
  /// happens to coincide.  Callers go through detail::SimTraceUser.
  void RecordUser(std::uint64_t a, std::uint64_t b, std::uint64_t c);

  /// Virtual microseconds since machine start.
  double NowUs() const {
    std::scoped_lock lk(clock_mu_);
    return now_us_;
  }

  /// Machine::Abort notifies the coordinator so every wait loop exits.
  void OnAbort();

  /// Fill cfg.report (if any) with final counters; called at teardown.
  void FillReport();

  /// Detach the fault injector's held-back message, if one exists, so the
  /// machine teardown can reclaim it (only non-empty after an abort — a
  /// normal run flushes it before declaring quiescence).
  void* TakeHeldMessage();

 private:
  enum class PeRunState : std::uint8_t { kNew, kReady, kRunning, kBlocked, kDone };

  enum class Event : std::uint64_t {
    kSend = 1,
    kImmediateSend,
    kDeliver,
    kSwitch,
    kAdvance,
    kQuiesce,
    kDrop,
    kDup,
    kHold,
    kUser,  // module-defined decision (RecordUser)
  };

  struct Slot {
    PeRunState state = PeRunState::kNew;
    // Per-PE wakeup channel (all waits still use mu_).  A shared condvar
    // with notify_all turns every baton handoff into a thundering herd —
    // npes-1 spurious thread wakeups per event, which dominates wall time
    // on hosts with fewer cores than PEs.  Targeted notifies wake only the
    // granted PE.
    std::condition_variable cv;
    // events_ value at the last time BlockForNet returned only because of a
    // pending quiescence exit; a second such return with no event in
    // between means the PE re-blocked without making progress (deadlock).
    std::uint64_t events_at_exit_return = kNeverReturned;
  };

  struct Held {
    void* msg = nullptr;
    int src = -1;
    int dst = -1;
  };

  static constexpr std::uint64_t kNeverReturned = ~0ull;

  /// Fold one event into the trace hash (FNV-1a over the field words).
  void HashEvent(Event kind, std::uint64_t a, std::uint64_t b,
                 std::uint64_t c);

  /// True when `pe` has a message it could deliver right now.
  bool Deliverable(PeState& pe);

  /// Wake every PE thread (abort / teardown paths).  Caller holds mu_.
  void WakeAllPesLocked();

  /// Pick the next PE to run and grant it the baton; advances the virtual
  /// clock / fires quiescence / detects deadlock when nobody is runnable.
  void ScheduleNextLocked(std::unique_lock<std::mutex>& lk);

  /// Abort the machine with a deadlock diagnostic (releases and reacquires
  /// lk around Machine::Abort, which re-enters OnAbort).
  void DeadlockAbortLocked(std::unique_lock<std::mutex>& lk,
                           const std::string& reason);

  /// Push a message into dest's timed queue at virtual time `arrive_us`.
  void PushTimed(int dest_pe, void* msg, double arrive_us);

  Machine& m_;
  const SimConfig cfg_;
  const int npes_;

  std::mutex mu_;
  std::vector<Slot> slots_;
  util::Xoshiro256 rng_;
  int registered_ = 0;
  int last_running_ = -1;
  bool abort_mode_ = false;
  std::vector<int> cand_;  // scratch for ScheduleNextLocked
  int cpu_ = -1;           // CPU the PE threads share; -1 = leave unpinned

  // The virtual clock gets its own (innermost, leaf) mutex so NowUs is
  // callable from machine paths that already hold mu_ or a PeState::mu.
  mutable std::mutex clock_mu_;
  double now_us_ = 0.0;

  // Fault injection (all under mu_).
  Held held_;
  std::uint64_t faults_injected_ = 0;

  // CciRace replay flip (all under mu_): a second, independent held slot so
  // a flip coexists with reorder-fault holds.  flip_done_ latches once the
  // flip either fired or was flushed at quiescence; flip_applied_ is set
  // only when the inversion actually happened (SimReport::flip_applied).
  Held flip_held_;
  bool flip_applied_ = false;
  bool flip_done_ = false;

  // Trace + report counters (all under mu_).
  std::uint64_t hash_ = 1469598103934665603ull;  // FNV-1a offset basis
  std::uint64_t outcome_ = 0;  // order-insensitive delivery digest
  std::uint64_t events_ = 0;
  std::uint64_t context_switches_ = 0;
  std::uint64_t dropped_ = 0;     // weighted: logical messages lost
  std::uint64_t duplicated_ = 0;  // weighted: logical messages duplicated
  std::uint64_t delayed_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t agg_frames_ = 0;   // aggregation frames seen on the wire
  std::uint64_t agg_batched_ = 0;  // logical messages inside those frames
  bool quiesced_ = false;
};

}  // namespace converse::detail
