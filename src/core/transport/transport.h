// Pluggable wire backends behind the machine layer (DESIGN.md "Transport
// interface").
//
// The machine's send paths (SendOwnedFrom / SendOwnedImmediate /
// CstTreeCast) stay the single source of truth for stamping, counters,
// race hooks, sim routing and lane pushes.  A Transport only sees traffic
// whose destination lives on ANOTHER node, through three hooks:
//
//   SendRemote    — unicast (plain message or an aggregation-frame
//                   carrier; frames are the wire unit, PR 4).
//   SendNodeCast  — one record per remote node for a spanning-tree
//                   broadcast; the receiving node fans out locally.
//   Flush         — write the records a PE staged (see FlushWire).
//   Stop/Start    — lifecycle bracketing Machine::Run.
//
// Two families implement this:
//
//   LoopbackWire (transport.cpp) — "virtual wire" used whenever
//     config.mynode == -1: one process hosts every node, records are
//     encoded + header-validated in memory, counters advance, optional
//     deterministic disconnect injection drops records — and surviving
//     unicasts fall through (return false) to the normal local delivery
//     path, so the sim / NetModel / race machinery drive any backend
//     unchanged.  This is what `simfuzz --transport` runs.
//
//   SocketEngine (socket.cpp) — real mode (config.mynode >= 0): Unix
//     domain / TCP sockets to peer processes; sending PEs write their own
//     batched sendmsg gathers at the machine's flush points, one comm
//     thread per node reads, drains what the kernel refused (POLLOUT),
//     reconnects with backoff and runs the goodbye handshake on shutdown.
//
// Single-node machines have no Transport at all (MakeTransport returns
// nullptr) — the in-process fast path is exactly the pre-refactor code.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "converse/cmi.h"
#include "core/pe_state.h"

namespace converse::detail {

class Transport {
 public:
  virtual ~Transport();

  virtual const char* name() const = 0;

  /// Bring the wire up (real mode: bind + start the comm thread; the
  /// rendezvous handshake completes asynchronously — sends queue until
  /// peers connect).  Called by Machine::Run before PE threads spawn.
  virtual void Start() {}

  /// Tear the wire down (real mode: flush outbound queues, exchange
  /// goodbye records, join the comm thread).  Called by Machine::Run
  /// after every PE thread joined — the comm thread is a lane producer,
  /// so it must be dead before the machine drains queues.
  virtual void Stop() {}

  /// Inter-node unicast of an owned message image (`immediate` selects
  /// the receiver's out-of-band lane).  True = the transport consumed
  /// `msg` (shipped to the peer process, or dropped by injection); false
  /// = fall through to the normal local delivery path (loopback's common
  /// case: the record was validated and counted, the original message
  /// still delivers locally so sim/model semantics are preserved).
  virtual bool SendRemote(PeState& src, int dest_pe, void* msg,
                          bool immediate) = 0;

  /// One broadcast record to `node` (never the sender's own node).
  /// `image` is a complete stamped message image of `size` bytes carrying
  /// the broadcast-root identity; the transport copies what it needs.
  virtual void SendNodeCast(PeState& src, int node, const void* image,
                            std::uint32_t size) = 0;

  /// Write what `pe` staged with SendRemote / SendNodeCast and clear its
  /// `wire_staged` flag.  Reached only through FlushWire, so never on a
  /// backend that does not stage (loopback) or on single-node machines.
  virtual void Flush(PeState& pe) { (void)pe; }

  /// Fold the node-level counters into a per-PE stats snapshot (CmiGetStats
  /// mirrors them on every local PE, like the agg/bcast counters).
  void FoldStats(CmiStats& s) const {
    s.wire_bytes_received += bytes_received_.load(std::memory_order_relaxed);
    s.wire_syscalls += syscalls_.load(std::memory_order_relaxed);
    s.wire_reconnects += reconnects_.load(std::memory_order_relaxed);
    s.wire_dropped += dropped_.load(std::memory_order_relaxed);
  }

  /// Logical messages lost to injected disconnects (loopback wire only;
  /// the conservation oracle's right-hand side).
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 protected:
  /// Sender-side per-record accounting, charged to the PE that created
  /// the record (mirrors how agg_frames_sent is charged).
  static void CountRecordSent(PeState& src, std::uint32_t body_len);

  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> syscalls_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// A PE's wire flush point: after each handler dispatch, whenever PopNet
/// finds the lanes empty, and in CstFlushAll.  One predictable branch for
/// a PE that staged nothing (every PE of a single-node machine).
inline void FlushWire(PeState& pe) {
  if (pe.wire_staged) pe.machine->transport()->Flush(pe);
}

/// Build the backend the machine's (already env-resolved) config asks
/// for; nullptr when the machine is single-node.
std::unique_ptr<Transport> MakeTransport(Machine& m);

/// Real-socket backend factory (socket.cpp).
std::unique_ptr<Transport> MakeSocketEngine(Machine& m);

}  // namespace converse::detail
