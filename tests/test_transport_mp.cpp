// Real multi-process transport tests: fork one OS process per node and
// drive actual Unix-domain sockets between them (what tools/converserun
// does, minus the exec).  Each child runs a full RunConverse machine with
// MachineConfig::mynode set and reports pass/fail through its exit code;
// the parent asserts on the collected codes.
//
// The fault-path tests exercise the wire's failure semantics: a peer that
// dies mid-stream must abort the survivors after CONVERSE_WIRE_TIMEOUT_MS
// (never hang), and a connection torn down at a partial record must not
// deliver the truncated tail.
//
// The send-path tests check that per-sender FIFO and exactly-once delivery
// hold across the sending PE's own writes and the comm thread's POLLOUT
// drain, and that a PE that only polls never leaves its records waiting
// for the comm thread's backstop.
#include "test_helpers.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

using namespace converse;

namespace {

// Exit codes children use to report what happened.
constexpr int kPass = 0;
constexpr int kCheckFailed = 3;   // machine ran but an assertion failed
constexpr int kNoAbort = 4;       // expected MachineAborted, machine exited
constexpr int kAborted = 5;       // machine aborted (expected in fault tests)

struct ForkResult {
  std::vector<int> codes;  // per-node exit code (128+sig for signals)
};

// Pids ForkNodes forked so far, in node order.  A child inherits the
// entries of every node forked before it, so node i can signal node j < i.
std::vector<pid_t> g_forked;

// Fork `nnodes` children; child `i` runs `body(cfg, node)` on a config
// pre-wired for real mode over a fresh Unix-socket rendezvous directory
// and _exits with its return value.  gtest never runs in the children.
ForkResult ForkNodes(int npes, int nnodes, CmiTransport transport,
                     int wire_timeout_ms,
                     const std::function<int(MachineConfig&, int)>& body) {
  char rdv[] = "/tmp/converse_mp.XXXXXX";
  if (mkdtemp(rdv) == nullptr) {
    ADD_FAILURE() << "mkdtemp failed";
    return {};
  }
  std::vector<pid_t>& pids = g_forked;
  pids.clear();
  for (int node = 0; node < nnodes; ++node) {
    const pid_t pid = fork();
    if (pid == 0) {
      MachineConfig cfg;
      cfg.npes = npes;
      cfg.nnodes = nnodes;
      cfg.transport = transport;
      cfg.mynode = node;
      cfg.rendezvous_dir = rdv;
      cfg.wire_timeout_ms = wire_timeout_ms;
      _exit(body(cfg, node));
    }
    pids.push_back(pid);
  }
  ForkResult r;
  r.codes.resize(static_cast<std::size_t>(nnodes), -1);
  for (int node = 0; node < nnodes; ++node) {
    int status = 0;
    waitpid(pids[static_cast<std::size_t>(node)], &status, 0);
    r.codes[static_cast<std::size_t>(node)] =
        WIFEXITED(status) ? WEXITSTATUS(status)
                          : 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  }
  for (int node = 0; node < nnodes; ++node) {
    const std::string sock =
        std::string(rdv) + "/node" + std::to_string(node) + ".sock";
    unlink(sock.c_str());
  }
  rmdir(rdv);
  return r;
}

}  // namespace

TEST(TransportMp, PingpongAcrossProcesses) {
  // Two single-PE processes bounce a counted token over a real socket;
  // both sides verify the count and the sender-side wire counters.
  constexpr int kRounds = 50;
  const ForkResult r = ForkNodes(
      2, 2, CmiTransport::kSocket, 10000, [](MachineConfig& cfg, int) {
        int rounds = 0;
        std::uint64_t frames = 0, syscalls = 0;
        RunConverse(cfg, [&](int pe, int) {
          int h = -1;
          h = CmiRegisterHandler([&h, &rounds](void* msg) {
            int v;
            std::memcpy(&v, CmiMsgPayload(msg), sizeof(v));
            rounds = v;
            if (v >= kRounds) {
              ConverseBroadcastExit();
              return;
            }
            const int next = v + 1;
            void* m = CmiMakeMessage(h, &next, sizeof(next));
            CmiSyncSendAndFree(CmiMyPe() == 0 ? 1 : 0, CmiMsgTotalSize(m), m);
          });
          if (pe == 0) {
            const int zero = 0;
            void* m = CmiMakeMessage(h, &zero, sizeof(zero));
            CmiSyncSendAndFree(1, CmiMsgTotalSize(m), m);
          }
          CsdScheduler(-1);
          const CmiStats s = CmiGetStats();
          frames = s.wire_frames_sent;
          syscalls = s.wire_syscalls;
        });
        // Each side sent ~kRounds/2 legs; every leg is one record, and
        // real sockets must have made actual syscalls to carry them.
        if (rounds < kRounds - 1) return kCheckFailed;
        if (frames == 0 || syscalls == 0) return kCheckFailed;
        return kPass;
      });
  ASSERT_EQ(r.codes.size(), 2u);
  EXPECT_EQ(r.codes[0], kPass);
  EXPECT_EQ(r.codes[1], kPass);
}

TEST(TransportMp, BroadcastAndImmediatesSmpNode) {
  // 2 processes x 2 PEs (SMP-node mode): pattern-checked broadcasts (small
  // wrapper path AND share-threshold shared-block path) plus immediates,
  // with acks converging on PE 0.
  constexpr int kSmall = 8, kBig = 2;
  constexpr std::size_t kBigBytes = 8192;
  const ForkResult r = ForkNodes(
      4, 2, CmiTransport::kSmpNode, 10000, [](MachineConfig& cfg, int) {
        std::atomic<int> bad{0};
        cfg.bcast_share_min = 4096;  // kBig broadcasts take the shared path
        RunConverse(cfg, [&](int pe, int n) {
          thread_local int acks, imms, seen;
          acks = imms = seen = 0;
          int h_ack = CmiRegisterHandler([n](void*) {
            if (++acks == (kSmall + kBig) * n) ConverseBroadcastExit();
          });
          int h_bc = CmiRegisterHandler([&bad, h_ack](void* msg) {
            unsigned seed;
            std::memcpy(&seed, CmiMsgPayload(msg), sizeof(seed));
            const auto* p =
                static_cast<const unsigned char*>(CmiMsgPayload(msg)) +
                sizeof(seed);
            const std::size_t len = CmiMsgPayloadSize(msg) - sizeof(seed);
            for (std::size_t i = 0; i < len; ++i) {
              if (p[i] != static_cast<unsigned char>((seed + i * 7) & 0xff)) {
                ++bad;
                break;
              }
            }
            ++seen;
            void* m = CmiMakeMessage(h_ack, &seed, sizeof(seed));
            CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
          });
          int h_imm = CmiRegisterHandler([](void*) { ++imms; });
          if (pe == 0) {
            for (int i = 0; i < kSmall + kBig; ++i) {
              const std::size_t body = i < kSmall ? 48 : kBigBytes;
              const unsigned seed = 0xb0u + static_cast<unsigned>(i);
              void* m = CmiAlloc(
                  static_cast<std::size_t>(CmiMsgHeaderSizeBytes()) +
                  sizeof(seed) + body);
              CmiSetHandler(m, h_bc);
              std::memcpy(CmiMsgPayload(m), &seed, sizeof(seed));
              auto* p = static_cast<unsigned char*>(CmiMsgPayload(m)) +
                        sizeof(seed);
              for (std::size_t j = 0; j < body; ++j) {
                p[j] = static_cast<unsigned char>((seed + j * 7) & 0xff);
              }
              CmiSyncBroadcastAllAndFree(CmiMsgTotalSize(m), m);
            }
            // A few immediates to the last PE (crosses the node boundary).
            for (int i = 0; i < 4; ++i) {
              void* m = CmiMakeMessage(h_imm, &i, sizeof(i));
              CmiSyncSendImmediateAndFree(
                  static_cast<unsigned>(n - 1), CmiMsgTotalSize(m), m);
            }
          }
          CsdScheduler(-1);
          if (seen != kSmall + kBig) ++bad;
        });
        return bad.load() == 0 ? kPass : kCheckFailed;
      });
  ASSERT_EQ(r.codes.size(), 2u);
  EXPECT_EQ(r.codes[0], kPass);
  EXPECT_EQ(r.codes[1], kPass);
}

TEST(TransportMp, KilledPeerAbortsSurvivorAfterTimeout) {
  // Node 1 dies before ever joining the rendezvous; node 0 must abort
  // (MachineAborted surfacing as an exception from RunConverse) once the
  // wire timeout expires — a dead rank may never hang the machine.
  const ForkResult r = ForkNodes(
      2, 2, CmiTransport::kSocket, 1200, [](MachineConfig& cfg, int node) {
        if (node == 1) _exit(kAborted);  // die without ever connecting
        try {
          RunConverse(cfg, [&](int pe, int) {
            int h = -1;
            h = CmiRegisterHandler([](void*) {});
            if (pe == 0) {
              // Traffic for the dead peer queues, then the timeout fires.
              void* m = CmiMakeMessage(h, nullptr, 0);
              CmiSyncSendAndFree(1, CmiMsgTotalSize(m), m);
            }
            CsdScheduler(-1);
          });
        } catch (const std::exception&) {
          return kAborted;  // expected: the machine aborted
        }
        return kNoAbort;
      });
  ASSERT_EQ(r.codes.size(), 2u);
  EXPECT_EQ(r.codes[0], kAborted) << "survivor did not abort";
  EXPECT_EQ(r.codes[1], kAborted);
}

TEST(TransportMp, PeerDyingMidStreamAbortsSurvivor) {
  // Node 1 connects, exchanges some traffic, then dies WITHOUT the
  // goodbye handshake (simulating a crash mid-conversation, possibly at a
  // partial record).  The survivor must notice the unclean EOF, fail to
  // reconnect, and abort after the timeout instead of waiting forever.
  const ForkResult r = ForkNodes(
      2, 2, CmiTransport::kSocket, 1500, [](MachineConfig& cfg, int node) {
        bool got_any = false;
        try {
          RunConverse(cfg, [&](int pe, int) {
            int h = CmiRegisterHandler([&got_any](void* msg) {
              got_any = true;
              if (CmiMyPe() == 1) {
                // Crash the whole process from inside a handler: no
                // goodbye record, the socket just resets.
                _exit(kAborted);
              }
              (void)msg;
            });
            if (pe == 0) {
              for (int i = 0; i < 4; ++i) {
                void* m = CmiMakeMessage(h, &i, sizeof(i));
                CmiSyncSendAndFree(1, CmiMsgTotalSize(m), m);
              }
            }
            CsdScheduler(-1);
          });
        } catch (const std::exception&) {
          return got_any || node == 0 ? kAborted : kCheckFailed;
        }
        return kNoAbort;
      });
  ASSERT_EQ(r.codes.size(), 2u);
  EXPECT_EQ(r.codes[0], kAborted) << "survivor did not abort on dead peer";
  EXPECT_EQ(r.codes[1], kAborted) << "peer did not die as scripted";
}

namespace {

// Sequenced records for the send-path tests: payload word 0 is the
// sequence number, the rest a byte pattern keyed by it.
constexpr std::size_t kSmallRec = 64;
constexpr std::size_t kBigRec =
    65536 - static_cast<std::size_t>(CmiMsgHeaderSizeBytes());

const unsigned char* Pattern() {
  static const std::vector<unsigned char> table = [] {
    std::vector<unsigned char> t(kBigRec + 256);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<unsigned char>(i * 7);
    }
    return t;
  }();
  return table.data();
}

void* MakeSeqRecord(int handler, std::uint64_t seq) {
  const std::size_t len = seq % 2 == 0 ? kBigRec : kSmallRec;
  void* m = CmiAlloc(static_cast<std::size_t>(CmiMsgHeaderSizeBytes()) + len);
  CmiSetHandler(m, handler);
  auto* p = static_cast<unsigned char*>(CmiMsgPayload(m));
  std::memcpy(p, Pattern() + seq % 256, len);
  std::memcpy(p, &seq, sizeof(seq));
  return m;
}

bool SeqRecordIntact(void* m, std::uint64_t seq) {
  const std::size_t len = seq % 2 == 0 ? kBigRec : kSmallRec;
  if (CmiMsgPayloadSize(m) != len) return false;
  const auto* p = static_cast<const unsigned char*>(CmiMsgPayload(m));
  return std::memcmp(p + sizeof(seq), Pattern() + seq % 256 + sizeof(seq),
                     len - sizeof(seq)) == 0;
}

}  // namespace

TEST(TransportMp, FifoExactlyOnceAcrossPeWritesAndPolloutDrains) {
  // Node 1 streams sequenced records to node 0, alternating 64 KiB and
  // 64 B.  While it queues the first 8 MiB, node 0 is stopped (SIGSTOP),
  // so the socket buffer (at most 2 MiB) must refuse bytes mid-burst: the
  // sending PE's own writes hit EAGAIN or a partial write and hand the
  // stream to the comm thread, whose POLLOUT drain takes over once node 0
  // resumes, while the PE keeps staging and polling.  Node 0 checks every
  // record in order (per-sender FIFO), its content, and the total count
  // (exactly once).
  constexpr std::uint64_t kStoppedRecs = 256;  // 128 x 64 KiB = 8 MiB
  constexpr std::uint64_t kTotalRecs = 512;
  const ForkResult r = ForkNodes(
      2, 2, CmiTransport::kSocket, 10000, [](MachineConfig& cfg, int) {
        bool ok = true;
        RunConverse(cfg, [&](int pe, int) {
          std::uint64_t next = 0;
          bool ready = false;
          const int h_ready =
              CmiRegisterHandler([&ready](void*) { ready = true; });
          const int h_rec = CmiRegisterHandler([&ok, &next](void* m) {
            std::uint64_t seq;
            std::memcpy(&seq, CmiMsgPayload(m), sizeof(seq));
            if (seq != next || !SeqRecordIntact(m, seq)) ok = false;
            ++next;
          });
          const int h_end = CmiRegisterHandler([&ok, &next](void* m) {
            std::uint64_t sent;
            std::memcpy(&sent, CmiMsgPayload(m), sizeof(sent));
            if (sent != next) ok = false;
            ConverseBroadcastExit();
          });
          // The receiver answers the sender's probe: both streams are up
          // and the receiver is in its scheduler before the stop.
          const int h_probe = CmiRegisterHandler([h_ready](void*) {
            void* m = CmiMakeMessage(h_ready, nullptr, 0);
            CmiSyncSendAndFree(1, CmiMsgTotalSize(m), m);
          });
          if (pe == 0) {
            CsdScheduler(-1);
            return;
          }
          void* probe = CmiMakeMessage(h_probe, nullptr, 0);
          CmiSyncSendAndFree(0, CmiMsgTotalSize(probe), probe);
          while (!ready) CsdScheduler(1);
          const pid_t receiver = g_forked[0];
          kill(receiver, SIGSTOP);
          struct Resume {
            pid_t pid;
            ~Resume() { kill(pid, SIGCONT); }
          } resume{receiver};
          std::uint64_t seq = 0;
          for (; seq < kStoppedRecs; ++seq) {
            void* m = MakeSeqRecord(h_rec, seq);
            CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
          }
          CmiDeliverMsgs(0);  // flush point (d) while the peer is stopped
          kill(receiver, SIGCONT);
          for (; seq < kTotalRecs; ++seq) {
            void* m = MakeSeqRecord(h_rec, seq);
            CmiSyncSendAndFree(0, CmiMsgTotalSize(m), m);
            if (seq % 7 == 0) CmiDeliverMsgs(0);
          }
          void* end = CmiMakeMessage(h_end, &seq, sizeof(seq));
          CmiSyncSendAndFree(0, CmiMsgTotalSize(end), end);
          CsdScheduler(-1);
        });
        return ok ? kPass : kCheckFailed;
      });
  ASSERT_EQ(r.codes.size(), 2u);
  EXPECT_EQ(r.codes[0], kPass) << "receiver saw a lost, duplicated, "
                                  "reordered or corrupted record";
  EXPECT_EQ(r.codes[1], kPass);
}

TEST(TransportMp, PollOnlyRoundTripsNeverWaitForTheBackstop) {
  // Both PEs send and then poll only with CmiGetMsg — no scheduler, no
  // CmiFlush.  Each leg must leave at the poll's first empty look (flush
  // point (d)); a record left for the comm thread's 50 ms backstop would
  // cost 100 round trips at least 5 s.
  constexpr int kRounds = 100;
  const ForkResult r = ForkNodes(
      2, 2, CmiTransport::kSocket, 10000, [](MachineConfig& cfg, int) {
        bool ok = true;
        double elapsed_s = 0;
        RunConverse(cfg, [&](int pe, int) {
          const int h = CmiRegisterHandler([](void*) {});
          const auto send = [h](int dest, int v) {
            void* m = CmiMakeMessage(h, &v, sizeof(v));
            CmiSyncSendAndFree(dest, CmiMsgTotalSize(m), m);
          };
          const auto recv = [&ok](int want) {
            void* m;
            while ((m = CmiGetMsg()) == nullptr) {
            }
            int v;
            std::memcpy(&v, CmiMsgPayload(m), sizeof(v));
            if (v != want) ok = false;
          };
          // Round -1 warms up: it also waits out the rendezvous.
          const auto t0 = std::chrono::steady_clock::now();
          for (int i = -1; i < kRounds; ++i) {
            if (i == 0 && pe == 0) {
              const auto now = std::chrono::steady_clock::now();
              elapsed_s = -std::chrono::duration<double>(now - t0).count();
            }
            if (pe == 0) {
              send(1, i);
              recv(i);
            } else {
              recv(i);
              send(0, i);
            }
          }
          if (pe == 0) {
            elapsed_s += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
          }
        });
        return ok && elapsed_s < 1.0 ? kPass : kCheckFailed;
      });
  ASSERT_EQ(r.codes.size(), 2u);
  EXPECT_EQ(r.codes[0], kPass) << "round trips too slow or out of order";
  EXPECT_EQ(r.codes[1], kPass);
}
