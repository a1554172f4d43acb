// The unified scheduler (paper §3.1.2, Figure 3).
//
// Loop shape follows the paper's pseudo code: deliver everything available
// from the machine layer first (timely processing of network messages),
// then dequeue exactly one message from the prioritized scheduler queue and
// deliver it to its handler; repeat.  When there is nothing to do the loop
// blocks on the PE's network condvar instead of spinning.
#include "converse/csd.h"

#include <cassert>

#include "converse/check.h"
#include "core/pe_state.h"
#include "core/transport/transport.h"
#include "race/race_internal.h"

namespace converse {
namespace {

using detail::CpvChecked;
using detail::PeState;

void NoteEnqueue(PeState& pe, void* msg) {
  ++pe.stats.msgs_enqueued;
  ++pe.qd_created;
  detail::race::OnLocalEnqueue(pe, msg);
  if (pe.hooks != nullptr && pe.hooks->on_enqueue != nullptr) {
    pe.hooks->on_enqueue(pe.hooks->ud, detail::Header(msg));
  }
  // When CciCheck is on, the queue's OnEnqueue hook diagnoses this with a
  // proper rule name; the assert only backs up checker-less debug builds.
  assert((CciCheckEnabled() || pe.sysbuf_stack.empty() ||
          pe.sysbuf_stack.back().msg != msg ||
          pe.sysbuf_stack.back().grabbed) &&
         "CsdEnqueue on an ungrabbed system buffer; call CmiGrabBuffer "
         "first (paper buffer-ownership protocol)");
}

/// Run every registered idle hook; true when any hook reported that it may
/// have produced new work (so the caller should re-poll before blocking).
bool RunIdleHooks(PeState& pe) {
  bool again = false;
  for (const PeState::IdleHook& h : pe.idle_hooks) {
    if (h.fn(h.ud)) again = true;
  }
  return again;
}

/// Dispatch one scheduler-queue message if present. Returns true if one ran.
bool RunOneFromQueue(PeState& pe) {
  void* msg = pe.schedq.Dequeue();
  if (msg == nullptr) return false;
  ++pe.stats.msgs_scheduled;
  detail::DispatchMessage(msg, /*system_owned=*/false);
  detail::FlushWire(pe);  // what the handler sent crosses the wire now
  // Under the sim backend, every scheduler-queue dispatch is a potential
  // preemption point, matching the network-delivery boundaries.
  detail::SimYieldHere();
  return true;
}

}  // namespace

void CsdScheduler(int number_of_messages) {
  PeState& pe = CpvChecked();
  ++pe.sched_depth;
  int delivered = 0;
  const bool bounded = number_of_messages >= 0;
  for (;;) {
    if (pe.exit_requested) {
      pe.exit_requested = false;
      break;
    }
    if (bounded && delivered >= number_of_messages) break;

    const int budget = bounded ? number_of_messages - delivered : -1;
    const int got = detail::DeliverAvailable(pe, budget);
    delivered += got;
    if (pe.exit_requested || (bounded && delivered >= number_of_messages)) {
      continue;  // re-check at loop top
    }

    if (RunOneFromQueue(pe)) {
      ++delivered;
      continue;
    }
    if (got > 0) continue;

    // Nothing from the network, nothing in the queue.  Give idle hooks a
    // chance to generate work (the kSteal balancer sends its steal request
    // here) before blocking until the machine layer has something for us.
    if (RunIdleHooks(pe)) continue;
    detail::WaitForNet(pe);
  }
  detail::race::OnSchedulerReturn(pe);
  --pe.sched_depth;
}

int CsdScheduleUntilIdle() {
  PeState& pe = CpvChecked();
  ++pe.sched_depth;
  int delivered = 0;
  for (;;) {
    if (pe.exit_requested) {
      pe.exit_requested = false;
      break;
    }
    const int got = detail::DeliverAvailable(pe, -1);
    delivered += got;
    if (pe.exit_requested) continue;
    if (RunOneFromQueue(pe)) {
      ++delivered;
      continue;
    }
    if (got == 0) {
      // Both queues drained.  Idle is a flush point for the aggregation
      // layer: push any open frames out, and only stop once no flush
      // produced new work for us (a self-directed round trip may answer).
      if (detail::CstFlushAll(pe) > 0) continue;
      break;
    }
  }
  detail::race::OnSchedulerReturn(pe);
  --pe.sched_depth;
  return delivered;
}

int CsdSchedulePoll(int n) {
  PeState& pe = CpvChecked();
  ++pe.sched_depth;
  int delivered = 0;
  const bool bounded = n >= 0;
  for (;;) {
    if (pe.exit_requested) {
      pe.exit_requested = false;
      break;
    }
    if (bounded && delivered >= n) break;
    const int got = detail::DeliverAvailable(pe, 1);
    if (got > 0) {  // an aggregation frame may deliver several at once
      delivered += got;
      continue;
    }
    if (RunOneFromQueue(pe)) {
      ++delivered;
      continue;
    }
    // Going idle without blocking still counts as an aggregation flush
    // point; sending is non-blocking, so poll semantics are preserved.
    if (detail::CstFlushAll(pe) > 0) continue;
    break;  // nothing available and we never block
  }
  detail::race::OnSchedulerReturn(pe);
  --pe.sched_depth;
  return delivered;
}

void CsdExitScheduler() {
  PeState& pe = CpvChecked();
  pe.exit_requested = true;
}

void CsdEnqueue(void* msg) {
  PeState& pe = CpvChecked();
  NoteEnqueue(pe, msg);
  pe.schedq.Enqueue(msg);
}

void CsdEnqueueLifo(void* msg) {
  PeState& pe = CpvChecked();
  NoteEnqueue(pe, msg);
  pe.schedq.EnqueueLifo(msg);
}

void CsdEnqueueIntPrio(void* msg, std::int32_t prio, bool lifo) {
  PeState& pe = CpvChecked();
  NoteEnqueue(pe, msg);
  detail::Header(msg)->int_prio = prio;
  pe.schedq.EnqueueIntPrio(msg, prio, lifo);
}

void CsdEnqueueBitvecPrio(void* msg, const std::uint32_t* prio_words,
                          int nbits, bool lifo) {
  PeState& pe = CpvChecked();
  NoteEnqueue(pe, msg);
  pe.schedq.EnqueueBitvecPrio(msg, prio_words, nbits, lifo);
}

void CsdEnqueueGeneral(void* msg, Queueing strategy, const CqsPrio& prio) {
  PeState& pe = CpvChecked();
  NoteEnqueue(pe, msg);
  pe.schedq.EnqueueGeneral(msg, strategy, prio);
}

std::size_t CsdLength() { return CpvChecked().schedq.Length(); }

bool CsdIsIdle() {
  PeState& pe = CpvChecked();
  if (!pe.schedq.Empty() || !pe.heldq.empty()) return false;
  if (detail::CstHasAnyOpen(pe)) return false;  // pending outbound frames
  return detail::NetIsIdle(pe);
}

}  // namespace converse
