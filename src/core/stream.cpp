// Cst — small-message aggregation frames and spanning-tree broadcast
// carriers.  Layout and ownership rules in stream.h; the user-facing story
// in converse/stream.h.
#include "core/stream.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

#include "converse/check.h"
#include "converse/machine.h"
#include "converse/stream.h"
#include "converse/util/spantree.h"
#include "core/env.h"
#include "core/msg_pool.h"
#include "core/pe_state.h"
#include "core/transport/transport.h"
#include "race/race_internal.h"
#include "sim/sim_internal.h"

namespace converse::detail {
namespace {

// u32 size + u32 pad + u64 frame back-pointer; 16 bytes so that every
// entry's message image lands on MsgHeader's 16-byte alignment and can be
// dispatched in place as a view.
constexpr std::uint32_t kEntryHeaderBytes = 16;

std::uint32_t PadTo16(std::uint32_t n) { return (n + 15u) & ~15u; }

std::uint32_t EntryBytes(std::uint32_t size) {
  return kEntryHeaderBytes + PadTo16(size);
}

static_assert(sizeof(MsgHeader) % 16 == 0 && sizeof(CstFrameWire) % 16 == 0,
              "frame entries must stay 16-aligned");

char* FrameEntries(void* frame) {
  return static_cast<char*>(frame) + sizeof(MsgHeader) + sizeof(CstFrameWire);
}
const char* FrameEntries(const void* frame) {
  return static_cast<const char*>(frame) + sizeof(MsgHeader) +
         sizeof(CstFrameWire);
}

/// Walk a finalized frame's entries read-only: fn(image, size) per packed
/// message (sim fault weighting; delivery uses ForEachView).
template <typename Fn>
void ForEachEntry(const void* frame, Fn&& fn) {
  CstFrameWire wire;
  std::memcpy(&wire, static_cast<const char*>(frame) + sizeof(MsgHeader),
              sizeof(wire));
  const char* p = FrameEntries(frame);
  for (std::uint32_t i = 0; i < wire.count; ++i) {
    std::uint32_t size;
    std::memcpy(&size, p, sizeof(size));
    fn(p + kEntryHeaderBytes, size);
    p += EntryBytes(size);
  }
}

/// Turn a received frame's entries into refcounted in-place views and hand
/// each to fn, in packed order.  Ownership of the frame buffer passes to
/// the views collectively: the last CstFrameViewRelease frees it, so the
/// walk reads each entry's extent *before* handing out its view (the
/// frame may die inside fn on the final entry).
template <typename Fn>
void ForEachView(void* frame, Fn&& fn) {
  auto* wire = reinterpret_cast<CstFrameWire*>(static_cast<char*>(frame) +
                                               sizeof(MsgHeader));
  const std::uint32_t count = wire->count;
  if (count == 0) {  // flush never emits an empty frame; stay safe anyway
    CmiFree(frame);
    return;
  }
  __atomic_store_n(&wire->refs, count, __ATOMIC_RELAXED);
  char* p = FrameEntries(frame);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t size;
    std::memcpy(&size, p, sizeof(size));
    std::memcpy(p + 8, &frame, sizeof(frame));  // release back-pointer
    char* const next = p + EntryBytes(size);
    void* view = p + kEntryHeaderBytes;
    MsgHeader* h = reinterpret_cast<MsgHeader*>(view);
    // Clear kMsgFlagShared too: the packed image may be a byte copy of a
    // grabbed shared-broadcast view, and this view owns no block reference.
    h->flags = static_cast<std::uint8_t>(
        (h->flags & ~(kMsgFlagPooled | kMsgFlagShared)) | kMsgFlagInFrame);
    check::OnAlloc(view, size);  // views live in the checker like messages
    check::OnCopyReset(view);
    fn(view);
    p = next;
  }
}

int FindFrameIdx(CstPeState& st, int dest) {
  // Steady-state sends hit the same destination repeatedly (reserve then
  // commit, bursts to one peer); the hint makes those lookups O(1).
  const std::size_t hot = static_cast<std::size_t>(st.hot);
  if (hot < st.open.size() && st.open[hot].dest == dest) {
    return st.hot;
  }
  for (std::size_t i = 0; i < st.open.size(); ++i) {
    if (st.open[i].dest == dest) {
      st.hot = static_cast<int>(i);
      return st.hot;
    }
  }
  return -1;
}

/// Copy a `size`-byte message image into a fresh machine-owned buffer
/// (broadcast inner materialization and self-delivery).
void* CopyImage(const void* image, std::uint32_t size) {
  void* msg = CmiAlloc(size);
  std::memcpy(msg, image, size);
  Header(msg)->total_size = size;
  Header(msg)->magic = kMsgMagicAlive;
  MsgPoolRestampFlag(msg);
  check::OnCopyReset(msg);
  return msg;
}

/// Detach the frame at `idx`, finalize its wire header and push it to the
/// network as one machine message.  Returns 1 (frames flushed).
// Adaptive solo-flush bypass (see CstPeState::solo_streak): after this many
// consecutive single-entry flushes to a destination, sends to it skip the
// aggregation layer; after this many bypassed sends, aggregation is
// re-probed in case the traffic turned bursty again.
constexpr std::uint16_t kSoloStreakLimit = 2;
constexpr std::uint16_t kSoloRetryEvery = 64;

int FlushFrameAt(PeState& pe, std::size_t idx) {
  CstFrame f = std::move(pe.agg.open[idx]);
  pe.agg.open.erase(pe.agg.open.begin() + static_cast<long>(idx));
  if (!pe.agg.solo_streak.empty()) {
    std::uint16_t& streak =
        pe.agg.solo_streak[static_cast<std::size_t>(f.dest)];
    if (f.count == 1) {
      if (streak < kSoloStreakLimit) ++streak;
    } else {
      streak = 0;
    }
  }
  MsgHeader* h = Header(f.buf);
  h->total_size =
      static_cast<std::uint32_t>(sizeof(MsgHeader) + sizeof(CstFrameWire)) +
      f.used;
  CstFrameWire wire{f.count, 0, 0};
  std::memcpy(static_cast<char*>(f.buf) + sizeof(MsgHeader), &wire,
              sizeof(wire));
  ++pe.stats.agg_frames_sent;
  pe.stats.agg_msgs_batched += f.count;
  if (pe.hooks != nullptr && pe.hooks->on_agg_flush != nullptr) {
    pe.hooks->on_agg_flush(pe.hooks->ud, f.dest, f.count, f.used);
  }
  // The frame is detached before this send, so SendOwnedFrom's own
  // flush-open-frame choke point cannot recurse into it.
  SendOwnedFrom(pe, f.dest, f.buf);
  for (AsyncCompletion* c : f.waiters) CstCompleteOne(c);
  return 1;
}

/// Shared append bookkeeping after an image was written into dest's frame.
void CommitRaw(PeState& pe, int dest, std::uint32_t size,
               AsyncCompletion* waiter) {
  CstPeState& st = pe.agg;
  const int idx = FindFrameIdx(st, dest);
  assert(idx >= 0 && "commit without a matching reserve");
  CstFrame& f = st.open[static_cast<std::size_t>(idx)];
  f.used += EntryBytes(size);
  ++f.count;
  if (waiter != nullptr) {
    ++waiter->pending;
    f.waiters.push_back(waiter);
  }
  if (f.count >= st.frame_msgs || f.used >= st.frame_bytes) {
    FlushFrameAt(pe, static_cast<std::size_t>(idx));
  }
}

void NoteCarrierForward(PeState& pe, int child, std::uint32_t size) {
  ++pe.stats.bcast_forwards;
  if (pe.hooks != nullptr && pe.hooks->on_bcast_forward != nullptr) {
    pe.hooks->on_bcast_forward(pe.hooks->ud, child, size);
  }
}

/// Children of `pe.mype` in the tree that distributes a carrier rooted at
/// (global PE) `root`.  Single-node machines use the whole-machine
/// spanning tree — bit-identical to the pre-transport behavior.  On
/// multi-node machines carriers are forwarded by pointer/clone and so
/// never leave the node: each node runs a node-local tree (remote nodes
/// got one wire record each instead), rooted at the root PE when it is
/// in-node and at the node's first PE otherwise (where the node-cast
/// record was injected).
std::vector<int> CarrierKids(const PeState& pe, int root) {
  const Machine& m = *pe.machine;
  if (!m.multi_node()) {
    const util::SpanningTree tree(pe.npes, root,
                                  m.config().spantree_branching);
    return tree.Children(pe.mype);
  }
  const int first = m.NodeFirst(pe.node);
  const int size = m.NodeSize(pe.node);
  const int local_root =
      (root >= first && root < first + size) ? root - first : 0;
  const util::SpanningTree tree(size, local_root,
                                m.config().spantree_branching);
  std::vector<int> kids = tree.Children(pe.mype - first);
  for (int& k : kids) k += first;
  return kids;
}

/// Logical messages lost when the carrier bound for `dest_pe` (rooted at
/// `root`) is dropped: the destination's subtree in the same tree
/// CarrierKids forwards along.
std::uint64_t CarrierSubtreeWeight(const Machine& m, int dest_pe, int root) {
  if (!m.multi_node()) {
    const util::SpanningTree tree(m.npes(), root,
                                  m.config().spantree_branching);
    return static_cast<std::uint64_t>(tree.SubtreeSize(dest_pe));
  }
  const int node = m.NodeOf(dest_pe);
  const int first = m.NodeFirst(node);
  const int size = m.NodeSize(node);
  const int local_root =
      (root >= first && root < first + size) ? root - first : 0;
  const util::SpanningTree tree(size, local_root,
                                m.config().spantree_branching);
  return static_cast<std::uint64_t>(tree.SubtreeSize(dest_pe - first));
}

/// Wrap a logical message image into a spanning-tree broadcast carrier
/// rooted at the calling PE.  The inner image's identity (source_pe, seq)
/// is stamped here, once — every PE in the tree materializes the same
/// logical message.
void* MakeWrapper(PeState& pe, const void* msg, std::uint32_t size,
                  std::uint32_t seq) {
  void* w = CmiAlloc(sizeof(MsgHeader) + sizeof(CstBcastWire) + size);
  MsgHeader* wh = Header(w);
  wh->handler = kCstCarrierHandler;
  wh->flags = static_cast<std::uint8_t>(wh->flags | kMsgFlagBcast);
  CstBcastWire wire{pe.mype, size};
  std::memcpy(CmiMsgPayload(w), &wire, sizeof(wire));
  char* dst = static_cast<char*>(CmiMsgPayload(w)) + sizeof(wire);
  std::memcpy(dst, msg, size);
  ++pe.stats.bcast_payload_copies;
  MsgHeader ih;
  std::memcpy(&ih, msg, sizeof(ih));
  ih.total_size = size;
  ih.magic = kMsgMagicAlive;
  ih.source_pe = static_cast<std::uint16_t>(pe.mype);
  ih.seq = seq;
  ih.flags = static_cast<std::uint8_t>(ih.flags & ~kMsgFlagCarrierMask);
  std::memcpy(dst, &ih, sizeof(ih));
  return w;
}

/// Take ownership of a received wrapper: re-forward it to this PE's tree
/// children (cloning for all but the last), then return the materialized
/// inner message, owned by the caller.
void* OpenBcast(PeState& pe, void* wrapper) {
  check::OnReclaim(wrapper);  // machine layer consumes the in-flight buffer
  CstBcastWire wire;
  std::memcpy(&wire, CmiMsgPayload(wrapper), sizeof(wire));
  const char* inner_image =
      static_cast<const char*>(CmiMsgPayload(wrapper)) + sizeof(wire);
  void* inner = CopyImage(inner_image, wire.inner_size);
  ++pe.stats.bcast_payload_copies;
  const std::vector<int> kids = CarrierKids(pe, wire.root);
  const std::uint32_t wsize = Header(wrapper)->total_size;
  for (std::size_t i = 0; i + 1 < kids.size(); ++i) {
    NoteCarrierForward(pe, kids[i], wsize);
    SendOwnedFrom(pe, kids[i], CloneMessage(wrapper));
    ++pe.stats.bcast_payload_copies;
  }
  if (!kids.empty()) {
    NoteCarrierForward(pe, kids.back(), wsize);
    SendOwnedFrom(pe, kids.back(), wrapper);
  } else {
    CmiFree(wrapper);
  }
  return inner;
}

/// Deliver one materialized (owned) logical message; opens a wrapper that
/// rode inside a frame first.  Returns 1, or 0 when a scatter registration
/// consumed the message (matching the flat PopNet path).
int DeliverOne(PeState& pe, void* msg) {
  const bool was_bcast = (Header(msg)->flags & kMsgFlagBcast) != 0;
  if (was_bcast) {
    msg = OpenBcast(pe, msg);
  }
  if (TryScatter(pe, msg)) return 0;
  ++pe.stats.msgs_delivered;
  race::OnWireDeliver(pe, msg, was_bcast);
  SimCoordinator* sim = pe.machine->sim();
  if (sim != nullptr) sim->RecordDeliver(pe, msg);
  DispatchMessage(msg, /*system_owned=*/true);
  return 1;
}

char* SbcastEntry(void* block) {
  return static_cast<char*>(block) + sizeof(MsgHeader) +
         sizeof(CstSbcastWire);
}

CstSbcastWire* SbcastWire(void* block) {
  return reinterpret_cast<CstSbcastWire*>(static_cast<char*>(block) +
                                          sizeof(MsgHeader));
}

/// Take ownership of one reference on a received shared-broadcast block:
/// forward the same pointer to this PE's tree children (bumping the
/// refcount *before* the pushes, so a holder exists before its pointer
/// does), then return the embedded view — whose single reference the
/// caller now owns in place of the block reference it came in with.
void* OpenShared(PeState& pe, void* block) {
  CstSbcastWire* wire = SbcastWire(block);
  // root < 0 marks a pre-fanned block: the transport layer already pushed
  // one reference to every PE of this node (CstNodeCastExpand), so
  // receivers dispatch their view and never forward.
  if (wire->root >= 0 && pe.mype != wire->root) {
    const std::vector<int> kids = CarrierKids(pe, wire->root);
    if (!kids.empty()) {
      __atomic_add_fetch(&wire->refs,
                         static_cast<std::uint32_t>(kids.size()),
                         __ATOMIC_RELAXED);
      const std::uint32_t bsize = Header(block)->total_size;
      for (int kid : kids) {
        NoteCarrierForward(pe, kid, bsize);
        SendSharedBlockFrom(pe, kid, block);
      }
    }
  }
  ++pe.stats.bcast_shared_views;
  return SbcastEntry(block) + kEntryHeaderBytes;
}

/// Deliver a received shared-broadcast block (CstDeliverCarrier's
/// kMsgFlagSbcast arm): forward, then dispatch the view in place.
int DeliverShared(PeState& pe, void* block) {
  void* view = OpenShared(pe, block);
  if (TryScatter(pe, view)) return 0;
  ++pe.stats.msgs_delivered;
  race::OnWireDeliver(pe, view, /*was_bcast=*/true);
  SimCoordinator* sim = pe.machine->sim();
  if (sim != nullptr) sim->RecordDeliver(pe, view);
  DispatchMessage(view, /*system_owned=*/true);
  return 1;
}

/// Multi-node broadcast fan-out: one wire record per REMOTE node, each
/// carrying the same stamped logical image (identity rule of MakeWrapper's
/// inner image); the receiving node re-expands it locally
/// (CstNodeCastExpand).  No-op on single-node machines.
void CastToRemoteNodes(PeState& pe, const void* msg, std::uint32_t size,
                       std::uint32_t seq) {
  Machine& m = *pe.machine;
  if (!m.multi_node()) return;
  Transport* t = m.transport();
  assert(t != nullptr);
  void* image = CopyImage(msg, size);
  MsgHeader* ih = Header(image);
  ih->source_pe = static_cast<std::uint16_t>(pe.mype);
  ih->seq = seq;
  ih->flags = static_cast<std::uint8_t>(ih->flags & ~kMsgFlagCarrierMask);
  for (int n = 0; n < m.nnodes(); ++n) {
    if (n != pe.node) t->SendNodeCast(pe, n, image, size);
  }
  check::OnReclaim(image);
  CmiFree(image);
}

/// Broadcast `size` bytes of `msg` as one refcounted shared block: the
/// payload is copied exactly once (here, at the root); every destination —
/// the root included, when include_self — dispatches a read-only view into
/// the same allocation, and the spanning tree forwards the block by
/// pointer.  All sends complete before returning.  On multi-node machines
/// the block covers only the root's own node; remote nodes get one wire
/// record each and build their own block (or wrapper) on arrival.
void CstSharedCast(PeState& pe, const void* msg, std::uint32_t size,
                   bool include_self) {
  const std::uint32_t seq = static_cast<std::uint32_t>(pe.send_seq++);
  race::OnBcastRoot(pe, seq);
  CastToRemoteNodes(pe, msg, size, seq);
  // Logical accounting up front, as in CstTreeCast — plus the self
  // delivery, which on this path rides the block like every other one
  // (the wrapper path self-delivers through SendOwnedFrom instead).
  const int logical = pe.npes - 1 + (include_self ? 1 : 0);
  pe.stats.msgs_sent += static_cast<std::uint64_t>(logical);
  pe.qd_created += static_cast<std::uint64_t>(logical);
  if (pe.hooks != nullptr && pe.hooks->on_send != nullptr) {
    MsgHeader h;
    std::memcpy(&h, msg, sizeof(h));
    h.total_size = size;
    h.magic = kMsgMagicAlive;
    h.source_pe = static_cast<std::uint16_t>(pe.mype);
    h.seq = seq;
    for (int i = 0; i < pe.npes; ++i) {
      if (i != pe.mype || include_self) {
        pe.hooks->on_send(pe.hooks->ud, &h, i);
      }
    }
  }
  const std::vector<int> kids = CarrierKids(pe, pe.mype);
  assert((!kids.empty() || include_self || pe.machine->multi_node()) &&
         "shared cast with no receiver");
  if (kids.empty() && !include_self) {
    // Possible only on a multi-node machine whose local node has no other
    // PE: the remote records above were the whole broadcast.
    return;
  }
  const std::uint32_t total =
      static_cast<std::uint32_t>(sizeof(MsgHeader) + sizeof(CstSbcastWire)) +
      kEntryHeaderBytes + size;
  void* block = CmiAlloc(total);
  MsgHeader* bh = Header(block);
  bh->handler = kCstCarrierHandler;
  bh->flags = static_cast<std::uint8_t>(bh->flags | kMsgFlagSbcast);
  bh->source_pe = static_cast<std::uint16_t>(pe.mype);
  bh->seq = seq;
  char* entry = SbcastEntry(block);
  std::memcpy(entry, &size, sizeof(size));
  std::memset(entry + sizeof(size), 0, 4);
  // The back-pointer is stamped once, here: the block is forwarded by
  // pointer and never copied, so it stays valid on every PE.  (The sim's
  // trace hash covers sizes and header identity, not payload bytes, so the
  // absolute address does not perturb determinism.)
  std::memcpy(entry + 8, &block, sizeof(block));
  void* view = entry + kEntryHeaderBytes;
  std::memcpy(view, msg, size);  // the one payload copy of this broadcast
  ++pe.stats.bcast_payload_copies;
  ++pe.stats.bcast_shared_blocks;
  MsgHeader* vh = reinterpret_cast<MsgHeader*>(view);
  vh->total_size = size;
  vh->magic = kMsgMagicAlive;
  vh->source_pe = static_cast<std::uint16_t>(pe.mype);
  vh->seq = seq;
  // Clear the CciCheck state bits (0x3) along with any inherited pool or
  // carrier bits: the checker never tracks shared views, so their state
  // field must read "owned" forever.
  vh->flags = static_cast<std::uint8_t>(
      (vh->flags &
       ~(0x3u | kMsgFlagPooled | kMsgFlagCarrierMask | kMsgFlagShared)) |
      kMsgFlagInFrame | kMsgFlagShared);
  CstSbcastWire wire{pe.mype,
                     static_cast<std::uint32_t>(kids.size() +
                                                (include_self ? 1 : 0)),
                     size, 0};
  std::memcpy(static_cast<char*>(block) + sizeof(MsgHeader), &wire,
              sizeof(wire));
  for (int kid : kids) {
    NoteCarrierForward(pe, kid, total);
    SendSharedBlockFrom(pe, kid, block);
  }
  if (include_self) SendSharedBlockFrom(pe, pe.mype, block);
}

}  // namespace

void CstNodeCastExpand(Machine& m, PeState* src, int node, const void* image,
                       std::uint32_t size) {
  const int first = m.NodeFirst(node);
  const int nlocal = m.NodeSize(node);
  assert(m.IsLocalPe(first) &&
         "node-cast expansion runs in the process hosting the node");
  MsgHeader ih;
  std::memcpy(&ih, image, sizeof(ih));
  const int root = ih.source_pe;
  // The share threshold is identical on every PE (same resolved config);
  // written once at machine construction, so the comm-thread read is safe.
  const std::uint32_t share_min = m.Pe(first).agg.share_min;
  if (share_min != 0 && size >= share_min && nlocal > 1) {
    // Shared-payload fan-out within the node: ONE allocation, one copy off
    // the wire, `nlocal` views.  The block is pre-fanned — every PE gets
    // its reference right here — so the root field carries the -1 sentinel
    // telling OpenShared not to re-forward.
    const std::uint32_t total =
        static_cast<std::uint32_t>(sizeof(MsgHeader) +
                                   sizeof(CstSbcastWire)) +
        kEntryHeaderBytes + size;
    void* block = CmiAlloc(total);
    MsgHeader* bh = Header(block);
    bh->handler = kCstCarrierHandler;
    bh->flags = static_cast<std::uint8_t>(bh->flags | kMsgFlagSbcast);
    bh->source_pe = ih.source_pe;
    bh->seq = ih.seq;
    char* entry = SbcastEntry(block);
    std::memcpy(entry, &size, sizeof(size));
    std::memset(entry + sizeof(size), 0, 4);
    std::memcpy(entry + 8, &block, sizeof(block));
    void* view = entry + kEntryHeaderBytes;
    std::memcpy(view, image, size);
    MsgHeader* vh = reinterpret_cast<MsgHeader*>(view);
    vh->total_size = size;
    vh->magic = kMsgMagicAlive;
    vh->flags = static_cast<std::uint8_t>(
        (vh->flags &
         ~(0x3u | kMsgFlagPooled | kMsgFlagCarrierMask | kMsgFlagShared)) |
        kMsgFlagInFrame | kMsgFlagShared);
    CstSbcastWire wire{-1, static_cast<std::uint32_t>(nlocal), size, 0};
    std::memcpy(static_cast<char*>(block) + sizeof(MsgHeader), &wire,
                sizeof(wire));
    if (src != nullptr) {
      ++src->stats.bcast_payload_copies;
      ++src->stats.bcast_shared_blocks;
      for (int i = first; i < first + nlocal; ++i) {
        SendSharedBlockFrom(*src, i, block);
      }
    } else {
      for (int i = first; i < first + nlocal; ++i) {
        DeliverFromWire(m, i, block, /*immediate=*/false);
      }
    }
    return;
  }
  // Small payload: one wrapper injected at the node's first PE, which
  // fans out down the node-local spanning tree (CarrierKids roots a tree
  // whose root PE is remote at local index 0 — exactly where this lands).
  void* w = CmiAlloc(sizeof(MsgHeader) + sizeof(CstBcastWire) + size);
  MsgHeader* wh = Header(w);
  wh->handler = kCstCarrierHandler;
  wh->flags = static_cast<std::uint8_t>(wh->flags | kMsgFlagBcast);
  CstBcastWire bwire{root, size};
  std::memcpy(CmiMsgPayload(w), &bwire, sizeof(bwire));
  std::memcpy(static_cast<char*>(CmiMsgPayload(w)) + sizeof(bwire), image,
              size);
  if (src != nullptr) {
    ++src->stats.bcast_payload_copies;
    SendOwnedFromLocal(*src, first, w);
  } else {
    wh->source_pe = static_cast<std::uint16_t>(root);
    wh->seq = ih.seq;
    DeliverFromWire(m, first, w, /*immediate=*/false);
  }
}

void CstInitPe(PeState& pe) {
  const MachineConfig& cfg = pe.machine->config();
  CstPeState& st = pe.agg;
  // Shared-payload broadcast threshold.  Independent of the frame toggle,
  // but like the spanning tree it needs the plain (no latency model) path:
  // a model prices per-destination copies individually.
  // Strict env parsing: a malformed value keeps the default and prints one
  // "[Cmi]" diagnostic (first local PE only, so one line per process).
  const bool warn = pe.mype == pe.machine->pe_begin();
  std::int64_t share = cfg.bcast_share_min;
  if (share < 0) {
    share = GetEnvInt("CONVERSE_SBCAST", 4096, pe.machine->err(), warn);
    if (share < 0) share = 0;
  }
  if (share > 0xffffffffll) share = 0xffffffffll;
  st.share_min = (pe.npes > 1 && cfg.model == nullptr)
                     ? static_cast<std::uint32_t>(share)
                     : 0;
  int mode = cfg.aggregate_sends;
  if (mode < 0) {
    mode = GetEnvInt("CONVERSE_AGG", 0, pe.machine->err(), warn) != 0 ? 1 : 0;
  }
  // A latency model prices each message individually; frames would turn
  // per-message latencies into per-batch ones, so the layer stays off.
  st.enabled = mode != 0 && pe.npes > 1 && cfg.model == nullptr;
  if (!st.enabled) return;
  st.frame_bytes = cfg.agg_frame_bytes < 64 ? 64 : cfg.agg_frame_bytes;
  st.frame_msgs = cfg.agg_frame_msgs < 1 ? 1 : cfg.agg_frame_msgs;
  const std::uint32_t cap = st.frame_bytes - kEntryHeaderBytes;
  st.max_msg = cfg.agg_max_msg < cap ? cfg.agg_max_msg : cap;
  if (st.max_msg < sizeof(MsgHeader)) st.enabled = false;
  if (st.enabled && cfg.agg_solo_bypass) {
    st.solo_streak.assign(static_cast<std::size_t>(pe.npes), 0);
    st.solo_bypassed.assign(static_cast<std::size_t>(pe.npes), 0);
  }
}

bool CstWouldAggregate(const PeState& pe, int dest, std::uint32_t size) {
  return pe.agg.enabled && dest != pe.mype &&
         size >= sizeof(MsgHeader) && size <= pe.agg.max_msg;
}

void* CstReserveMsg(PeState& pe, int dest, std::uint32_t size) {
  if (!CstWouldAggregate(pe, dest, size)) return nullptr;
  CstPeState& st = pe.agg;
  int idx = FindFrameIdx(st, dest);
  if (idx >= 0 &&
      st.open[static_cast<std::size_t>(idx)].used + EntryBytes(size) >
          st.frame_bytes) {
    FlushFrameAt(pe, static_cast<std::size_t>(idx));
    idx = -1;
  }
  if (idx < 0 && !st.solo_streak.empty() &&
      st.solo_streak[static_cast<std::size_t>(dest)] >= kSoloStreakLimit) {
    // This destination's frames keep flushing with one entry — the shape
    // pays frame overhead for no batching.  Send directly; once in a while
    // let one message open a frame again to re-probe the traffic shape.
    std::uint16_t& bypassed =
        st.solo_bypassed[static_cast<std::size_t>(dest)];
    if (++bypassed >= kSoloRetryEvery) {
      bypassed = 0;
      st.solo_streak[static_cast<std::size_t>(dest)] = 0;
    } else {
      return nullptr;
    }
  }
  if (idx < 0) {
    void* buf = CmiAlloc(sizeof(MsgHeader) + sizeof(CstFrameWire) +
                         st.frame_bytes);
    MsgHeader* h = Header(buf);
    h->handler = kCstCarrierHandler;
    h->flags = static_cast<std::uint8_t>(h->flags | kMsgFlagFrame);
    st.open.push_back(CstFrame{});
    CstFrame& f = st.open.back();
    f.buf = buf;
    f.dest = dest;
    idx = static_cast<int>(st.open.size()) - 1;
  }
  CstFrame& f = st.open[static_cast<std::size_t>(idx)];
  char* entry = FrameEntries(f.buf) + f.used;
  std::memcpy(entry, &size, sizeof(size));
  if (pe.machine->sim() != nullptr) {
    // The pad and back-pointer fields are dead on the wire (the receiver
    // stamps the back-pointer at unpack); zero them only when the sim will
    // hash the frame bytes, so the event trace stays deterministic.
    std::memset(entry + sizeof(size), 0, kEntryHeaderBytes - sizeof(size));
  }
  return entry + kEntryHeaderBytes;
}

void CstCommitMsg(PeState& pe, int dest, void* image, std::uint32_t size,
                  AsyncCompletion* waiter) {
  // Stamp the packed copy's logical identity (the image is 16-aligned, so
  // direct header access is legal) and account for it as one ordinary send.
  MsgHeader* h = reinterpret_cast<MsgHeader*>(image);
  h->total_size = size;
  h->magic = kMsgMagicAlive;
  h->source_pe = static_cast<std::uint16_t>(pe.mype);
  h->seq = static_cast<std::uint32_t>(pe.send_seq++);
  if (pe.hooks != nullptr && pe.hooks->on_send != nullptr) {
    pe.hooks->on_send(pe.hooks->ud, h, dest);
  }
  ++pe.stats.msgs_sent;
  ++pe.qd_created;
  race::OnFrameAppend(pe, dest, image);
  CommitRaw(pe, dest, size, waiter);
}

bool CstTrySmallSend(PeState& pe, int dest, const void* msg,
                     std::uint32_t size, AsyncCompletion* waiter) {
  void* image = CstReserveMsg(pe, dest, size);
  if (image == nullptr) return false;
  std::memcpy(image, msg, size);
  CstCommitMsg(pe, dest, image, size, waiter);
  return true;
}

bool CstTryAppendCarrier(PeState& pe, int dest, const void* image,
                         std::uint32_t size, AsyncCompletion* waiter) {
  void* spot = CstReserveMsg(pe, dest, size);
  if (spot == nullptr) return false;
  std::memcpy(spot, image, size);
  // The carrier wrapper keeps its own (broadcast) identity; the append
  // still joins the sender's clock into the frame's carried clock.
  race::OnFrameAppend(pe, dest, nullptr);
  CommitRaw(pe, dest, size, waiter);
  return true;
}

int CstFlushDest(PeState& pe, int dest) {
  const int idx = FindFrameIdx(pe.agg, dest);
  if (idx < 0) return 0;
  return FlushFrameAt(pe, static_cast<std::size_t>(idx));
}

int CstFlushAll(PeState& pe) {
  int n = 0;
  while (!pe.agg.open.empty()) n += FlushFrameAt(pe, 0);
  FlushWire(pe);  // the frames (and earlier staged records) go out now
  return n;
}

bool CstHasAnyOpen(const PeState& pe) { return !pe.agg.open.empty(); }

int CstDeliverCarrier(PeState& pe, void* carrier) {
  const std::uint8_t flags = Header(carrier)->flags;
  if ((flags & kMsgFlagSbcast) != 0) {
    return DeliverShared(pe, carrier);
  }
  if ((flags & kMsgFlagBcast) != 0) {
    return DeliverOne(pe, carrier);
  }
  check::OnReclaim(carrier);
  int delivered = 0;
  // Entries dispatch in place as views; the frame dies with its last view.
  ForEachView(carrier, [&](void* view) { delivered += DeliverOne(pe, view); });
  return delivered;
}

void CstUnpackToHeld(PeState& pe, void* carrier) {
  if ((Header(carrier)->flags & kMsgFlagSbcast) != 0) {
    // Tree forwarding happens now; the view waits in heldq like any other
    // unpacked logical message.
    void* view = OpenShared(pe, carrier);
    if (!TryScatter(pe, view)) pe.heldq.push_back(view);
    return;
  }
  const auto hold = [&pe](void* msg) {
    if ((Header(msg)->flags & kMsgFlagBcast) != 0) msg = OpenBcast(pe, msg);
    if (!TryScatter(pe, msg)) pe.heldq.push_back(msg);
  };
  if ((Header(carrier)->flags & kMsgFlagBcast) != 0) {
    hold(carrier);
    return;
  }
  check::OnReclaim(carrier);
  ForEachView(carrier, hold);
}

void CstFrameViewRelease(void* view) {
  // The entry header in front of the view holds the frame back-pointer
  // (stamped at unpack time; see ForEachView).
  void* frame;
  std::memcpy(&frame, static_cast<char*>(view) - 8, sizeof(frame));
  auto* wire = reinterpret_cast<CstFrameWire*>(static_cast<char*>(frame) +
                                               sizeof(MsgHeader));
  // A grabbed view can be re-sent and freed on another PE, so the release
  // must be atomic; the acquire/release pair orders every view's payload
  // writes before the frame buffer returns to its pool.
  if (__atomic_sub_fetch(&wire->refs, 1, __ATOMIC_ACQ_REL) == 0) {
    CmiFree(frame);
  }
}

void CstSbcastViewRelease(void* view) {
  // The entry header in front of the view carries the block back-pointer,
  // stamped once at the root (the block is never copied).
  void* block;
  std::memcpy(&block, static_cast<char*>(view) - 8, sizeof(block));
  CstSbcastBlockRelease(block);
}

void CstSbcastBlockRelease(void* block) {
  CstSbcastWire* wire = SbcastWire(block);
  // The acquire/release pair orders every PE's reads of the shared payload
  // before the block's storage is reused.
  if (__atomic_sub_fetch(&wire->refs, 1, __ATOMIC_ACQ_REL) == 0) {
    // Last holder: drop the routing flag so the block dies like an
    // ordinary message — CciCheck sees the OnFree matching the root's
    // OnAlloc, and the storage goes back to its pool.
    Header(block)->flags = static_cast<std::uint8_t>(Header(block)->flags &
                                                     ~kMsgFlagSbcast);
    CmiFree(block);
  }
}

bool CstWouldShareBcast(const PeState& pe, std::uint32_t size) {
  return pe.agg.share_min != 0 && size >= pe.agg.share_min &&
         CstUseTree(pe);
}

bool CstUseTree(const PeState& pe) {
  return pe.npes > 1 && !pe.machine->has_model();
}

AsyncCompletion* CstTreeCast(PeState& pe, const void* msg, std::uint32_t size,
                             bool include_self, bool defer) {
  assert(size >= sizeof(MsgHeader));
  if (CstWouldShareBcast(pe, size)) {
    // Zero-copy path: one refcounted payload block, N views.  Every push
    // completes before the call returns, so the deferred (async) variants
    // get a born-done handle.
    CstSharedCast(pe, msg, size, include_self);
    return nullptr;
  }
  const std::uint32_t seq = static_cast<std::uint32_t>(pe.send_seq++);
  race::OnBcastRoot(pe, seq);
  // Logical accounting up front: the root sends one message to every other
  // PE, whatever the physical fan-out below turns out to be.
  const int remote = pe.npes - 1;
  pe.stats.msgs_sent += static_cast<std::uint64_t>(remote);
  pe.qd_created += static_cast<std::uint64_t>(remote);
  if (pe.hooks != nullptr && pe.hooks->on_send != nullptr) {
    MsgHeader h;
    std::memcpy(&h, msg, sizeof(h));
    h.total_size = size;
    h.magic = kMsgMagicAlive;
    h.source_pe = static_cast<std::uint16_t>(pe.mype);
    h.seq = seq;
    for (int i = 0; i < pe.npes; ++i) {
      if (i != pe.mype) pe.hooks->on_send(pe.hooks->ud, &h, i);
    }
  }
  CastToRemoteNodes(pe, msg, size, seq);
  const std::vector<int> kids = CarrierKids(pe, pe.mype);
  AsyncCompletion* completion = nullptr;
  if (!kids.empty()) {
    void* w = MakeWrapper(pe, msg, size, seq);
    const std::uint32_t wsize = Header(w)->total_size;
    if (defer) {
      // Async variant: small wrappers ride the aggregation frames, sharing
      // one completion; flushing (or idling) finishes the operation.
      auto* c = new AsyncCompletion{0, false};
      for (int kid : kids) {
        NoteCarrierForward(pe, kid, wsize);
        if (CstTryAppendCarrier(pe, kid, w, wsize, c)) {
          ++pe.stats.bcast_payload_copies;  // packed copy into the frame
        } else {
          SendOwnedFrom(pe, kid, CloneMessage(w));
          ++pe.stats.bcast_payload_copies;
        }
      }
      CmiFree(w);
      if (c->pending == 0) {
        delete c;
      } else {
        completion = c;
      }
    } else {
      for (std::size_t i = 0; i + 1 < kids.size(); ++i) {
        NoteCarrierForward(pe, kids[i], wsize);
        SendOwnedFrom(pe, kids[i], CloneMessage(w));
        ++pe.stats.bcast_payload_copies;
      }
      NoteCarrierForward(pe, kids.back(), wsize);
      SendOwnedFrom(pe, kids.back(), w);
    }
  }
  if (include_self) {
    SendOwnedFrom(pe, pe.mype, CopyImage(msg, size));
    ++pe.stats.bcast_payload_copies;
  }
  return completion;
}

std::uint64_t CstMessageWeight(const Machine& m, int dest_pe,
                               const void* msg) {
  const std::uint8_t flags = Header(msg)->flags;
  if ((flags & kMsgFlagSbcast) != 0) {
    // Dropping a shared block bound for dest_pe loses that PE's view and
    // everything it would have forwarded below it — same weighting rule
    // as a broadcast wrapper.  A pre-fanned block (root < 0) is never
    // re-forwarded, so exactly one view is lost.
    CstSbcastWire wire;
    std::memcpy(&wire, CmiMsgPayload(msg), sizeof(wire));
    if (wire.root < 0) return 1;
    return CarrierSubtreeWeight(m, dest_pe, wire.root);
  }
  if ((flags & kMsgFlagBcast) != 0) {
    CstBcastWire wire;
    std::memcpy(&wire, CmiMsgPayload(msg), sizeof(wire));
    return CarrierSubtreeWeight(m, dest_pe, wire.root);
  }
  if ((flags & kMsgFlagFrame) != 0) {
    std::uint64_t w = 0;
    ForEachEntry(msg, [&](const char* image, std::uint32_t size) {
      (void)size;
      MsgHeader h;
      std::memcpy(&h, image, sizeof(h));
      if ((h.flags & kMsgFlagBcast) != 0) {
        CstBcastWire wire;
        std::memcpy(&wire, image + sizeof(MsgHeader), sizeof(wire));
        w += CarrierSubtreeWeight(m, dest_pe, wire.root);
      } else {
        w += 1;
      }
    });
    return w;
  }
  return 1;
}

void CstDrain(PeState& pe) {
  for (CstFrame& f : pe.agg.open) {
    // Open frames were never handed to the machine layer (still owned), so
    // a plain free is legal; their waiters complete vacuously.
    CmiFree(f.buf);
    for (AsyncCompletion* c : f.waiters) CstCompleteOne(c);
  }
  pe.agg.open.clear();
}

}  // namespace converse::detail

namespace converse {

int CmiFlush() { return detail::CstFlushAll(detail::CpvChecked()); }

bool CmiAggActive() { return detail::CpvChecked().agg.enabled; }

}  // namespace converse
