// wire: two processes, one PE each, over the Unix-socket transport at the
// default configuration (aggregation off, so every message is its own wire
// record).  The initiator forks its echo node, as bench_transport does.  Each
// machine runs three phases: a 64 B stream with per-burst acks, a 64 B
// ping-pong and a 64 KiB ping-pong.  The only workload that builds a
// Transport; the in-process workloads construct none.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "common.h"
#include "pingpong.h"

using namespace converse;

namespace e2e {
namespace {

constexpr std::uint64_t kBurst = 256;     // stream messages per ack
constexpr std::uint64_t kMaxBursts = 2;   // unacked bursts in flight
constexpr std::size_t kBigPayload = 65536 - 32;  // 64 KiB with the header
// Share of a machine's measured time for each phase.
constexpr double kStreamShare = 0.4, kPingShare = 0.4, kBigShare = 0.2;

struct Payload {
  std::uint64_t seq;
  std::uint32_t phase;
  std::uint32_t pad;
  std::uint64_t words[6];
};
static_assert(sizeof(Payload) == 64);

void Fill(std::uint64_t seed, std::uint64_t seq, std::uint64_t (&w)[6]) {
  const std::uint64_t base = Mix(seed ^ (seq * 0x100000001b3ULL));
  for (int i = 0; i < 6; ++i) w[i] = base + static_cast<std::uint64_t>(i);
}

// One machine's stream main phase on one side: CPU and messages (acked on
// the initiator, received on the echo).
struct MainPhase {
  double cpu_s = 0;
  std::uint64_t msgs = 0;
};

// What one process learns about its own side, summed over machines.
struct Side {
  std::uint64_t attempted = 0, failed = 0;
  MainPhase main;  // the last machine's
  // Traced stream phase: this node's wire counters.
  std::uint64_t wire_frames = 0, wire_syscalls = 0, wire_bytes = 0;
  std::uint64_t reconnects = 0;
  double peak_rss_mb = 0;
};

CmiStats Delta(const CmiStats& a, const CmiStats& b) {
  CmiStats d;
  d.wire_frames_sent = b.wire_frames_sent - a.wire_frames_sent;
  d.wire_bytes_sent = b.wire_bytes_sent - a.wire_bytes_sent;
  d.wire_syscalls = b.wire_syscalls - a.wire_syscalls;
  d.idle_blocks = b.idle_blocks - a.idle_blocks;
  return d;
}

// Phase 1: PE 0 streams bursts of 64 B messages; PE 1 checks each and acks
// each burst.
class Stream {
 public:
  /// Initiator only: `mem` receives the pool counters of the traced phase and
  /// `rate` the main phase's acked messages.
  Stream(const Options& o, Tracer* tracer, Side& side, Layers* mem,
         RateWindows* rate)
      : o_(o), tracer_(tracer), side_(side), mem_out_(mem), rate_(rate) {
    sink_h_ = CmiRegisterHandler([this](void* m) { OnSink(m); });
    ack_h_ = CmiRegisterHandler([this](void* m) { OnAck(m); });
    end_h_ = CmiRegisterHandler([this](void* m) { OnEnd(m); });
  }
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  void Run(const PhaseClock& clock) {
    if (CmiMyPe() == 0) {
      Drive(clock);
    } else {
      while (!ended_) CsdScheduler(1);
    }
    if (traced_) {
      const CmiStats d = Delta(stats0_, traced_end_);
      side_.wire_frames += d.wire_frames_sent;
      side_.wire_bytes += d.wire_bytes_sent;
      side_.wire_syscalls += d.wire_syscalls;
      idle_blocks_ += d.idle_blocks;
    }
    if (main_t1_ != 0) {
      side_.main.cpu_s = cpu_t1_ - cpu_t0_;
      side_.main.msgs = main_msgs_;
    }
  }

  std::uint64_t traced_msgs() const { return traced_msgs_; }
  std::uint64_t idle_blocks() const { return idle_blocks_; }

 private:
  Tracer* TracerIf(Phase ph) const {
    return ph == kTraced ? tracer_ : nullptr;
  }

  // Called at the first message of the traced phase and after its last.
  // Initiator: traced messages sent; echo: traced messages received.
  void MarkTraced(bool start) {
    if (start) {
      traced_ = true;
      stats0_ = CmiGetStats();
      if (mem_out_ != nullptr) mem_.emplace();
    } else if (traced_ && !traced_closed_) {
      traced_closed_ = true;
      traced_end_ = CmiGetStats();
      if (mem_) mem_->Finish(static_cast<double>(traced_msgs_), *mem_out_);
    }
  }

  void Drive(const PhaseClock& clock) {
    Phase ph = kWarm;
    for (std::uint64_t burst = 0;; ++burst) {
      if (burst - acked_bursts_ >= kMaxBursts) {
        Scope wait(TracerIf(ph), kAckWait);
        while (burst - acked_bursts_ >= kMaxBursts) CsdScheduler(1);
      }
      ph = clock.At(NowNs());
      if (ph == kTraced && tracer_->Full()) ph = kDone;
      if (ph == kDone) break;
      if (ph == kTraced) {
        if (!traced_) MarkTraced(true);
        traced_msgs_ += kBurst;
      }
      burst_phase_[burst % kMaxBursts] = ph;
      for (std::uint64_t i = 0; i < kBurst; ++i) {
        void* m;
        {
          Scope alloc(TracerIf(ph), kMsgAlloc);
          m = CmiMakeMessage(sink_h_, nullptr, sizeof(Payload));
        }
        Payload p{};
        p.seq = sent_;
        p.phase = ph;
        Fill(o_.seed, p.seq, p.words);
        if (o_.plant > 0 &&
            (sent_ + 1) % static_cast<std::uint64_t>(o_.plant) == 0) {
          p.words[2] ^= 1;  // planted corruption: the echo must count it
        }
        std::memcpy(CmiMsgPayload(m), &p, sizeof(p));
        Scope send(TracerIf(ph), kWireSend);
        CmiSyncSendAndFree(1, static_cast<unsigned>(CmiMsgTotalSize(m)), m);
        ++sent_;
      }
    }
    while (acked_bursts_ * kBurst < sent_) CsdScheduler(1);
    MarkTraced(false);
    if (main_t0_ != 0 && cpu_t1_ == 0) cpu_t1_ = ProcessCpuS();
    side_.attempted += sent_;
    void* e = CmiMakeMessage(end_h_, &sent_, sizeof(sent_));
    CmiSyncSendAndFree(1, static_cast<unsigned>(CmiMsgTotalSize(e)), e);
  }

  // Initiator: a burst was acked.  The main-phase rate counts acked messages
  // from the first main ack on.
  void OnAck(void* msg) {
    std::uint64_t count;
    std::memcpy(&count, CmiMsgPayload(msg), sizeof(count));
    const Phase ph = burst_phase_[acked_bursts_ % kMaxBursts];
    Scope span(TracerIf(ph), kHandler);
    const std::int64_t now = NowNs();
    if (ph == kMain) {
      if (main_t0_ == 0) {
        main_t0_ = now;
        cpu_t0_ = ProcessCpuS();
      } else {
        main_msgs_ += kBurst;
        main_t1_ = now;
      }
      if (rate_ != nullptr) rate_->Count(now, kBurst);
    } else if (ph > kMain && main_t0_ != 0 && cpu_t1_ == 0) {
      cpu_t1_ = ProcessCpuS();
    }
    ++acked_bursts_;
    if (count != acked_bursts_ * kBurst) ++side_.failed;
  }

  // Echo: check content and sequence; ack every burst.
  void OnSink(void* msg) {
    const std::int64_t t_e = NowNs();
    Payload p;
    std::memcpy(&p, CmiMsgPayload(msg), sizeof(p));
    const Phase ph = static_cast<Phase>(p.phase);
    if (ph == kMain) {
      if (main_t0_ == 0) {
        main_t0_ = t_e;
        cpu_t0_ = ProcessCpuS();
      } else {
        ++main_msgs_;
        main_t1_ = t_e;
      }
    } else if (ph > kMain && main_t0_ != 0 && cpu_t1_ == 0) {
      cpu_t1_ = ProcessCpuS();
    }
    if (ph == kTraced && !traced_) MarkTraced(true);
    if (ph == kTraced) ++traced_msgs_;
    std::uint64_t want[6];
    Fill(o_.seed, p.seq, want);
    if (p.seq != got_ || std::memcmp(want, p.words, sizeof(want)) != 0) {
      ++side_.failed;
    }
    ++got_;
    ++side_.attempted;
    if (got_ % kBurst == 0) {
      void* a = CmiMakeMessage(ack_h_, &got_, sizeof(got_));
      CmiSyncSendAndFree(0, static_cast<unsigned>(CmiMsgTotalSize(a)), a);
    }
  }

  void OnEnd(void* msg) {
    std::uint64_t sent;
    std::memcpy(&sent, CmiMsgPayload(msg), sizeof(sent));
    if (sent != got_) {  // exactly once: every record arrived, once
      side_.failed += sent > got_ ? sent - got_ : got_ - sent;
    }
    MarkTraced(false);
    if (main_t0_ != 0 && cpu_t1_ == 0) cpu_t1_ = ProcessCpuS();
    ended_ = true;
  }

  const Options& o_;
  Tracer* tracer_;
  Side& side_;
  Layers* mem_out_;
  RateWindows* rate_;
  std::optional<MemDelta> mem_;
  int sink_h_ = -1, ack_h_ = -1, end_h_ = -1;
  std::uint64_t sent_ = 0, acked_bursts_ = 0, got_ = 0;
  Phase burst_phase_[kMaxBursts] = {};
  bool ended_ = false, traced_ = false, traced_closed_ = false;
  CmiStats stats0_, traced_end_;
  std::int64_t main_t0_ = 0, main_t1_ = 0;
  double cpu_t0_ = 0, cpu_t1_ = 0;
  std::uint64_t main_msgs_ = 0, traced_msgs_ = 0, idle_blocks_ = 0;
};

// One process's figures of the phases beyond its Side, allocated once per
// process so that its memory use is the same in every run.  The stream and
// pool figures are the initiator's.
struct PhaseStats {
  PingPong::Stats ping, big;
  std::uint64_t stream_traced_msgs = 0, idle_blocks = 0;
  Layers mem;  // pool counters of the traced stream phase
  RateWindows stream_rate;
};

struct Tracers {
  std::unique_ptr<Tracer> stream, ping, big;
};

MachineConfig WireConfig(const Options& o, int mynode, const std::string& rdv) {
  MachineConfig cfg;
  cfg.npes = 2;
  cfg.nnodes = 2;
  cfg.transport = CmiTransport::kSocket;
  cfg.mynode = mynode;
  cfg.rendezvous_dir = rdv.c_str();
  cfg.seed = o.seed;
  return cfg;
}

// One measured machine, run by both processes.  `tr` is the initiator's (null
// on the echo); `go` (initiator only) is written once the listener is bound,
// to start the echo's machine.
void RunMachine(const Options& o, int mynode, const std::string& rdv,
                double seconds, Side& side, PhaseStats& ps, Tracers* tr,
                int go) {
  const MachineConfig cfg = WireConfig(o, mynode, rdv);
  RunConverse(cfg, [&](int pe, int) {
    Stream stream(o, tr != nullptr ? tr->stream.get() : nullptr, side,
                  pe == 0 ? &ps.mem : nullptr,
                  pe == 0 ? &ps.stream_rate : nullptr);
    PingPong ping(o, 0, 1, 64, kWireSend,
                  tr != nullptr ? tr->ping.get() : nullptr, ps.ping);
    PingPong big(o, 0, 1, kBigPayload, kWireSend,
                 tr != nullptr ? tr->big.get() : nullptr, ps.big);
    if (go >= 0 && write(go, "M", 1) != 1) {
      throw std::runtime_error("wire: cannot start the echo process");
    }
    CmiBarrierBlocking();
    const double warm = WarmSeconds(o);
    stream.Run(PhaseClock(NowNs(), warm, seconds * kStreamShare, o.trace));
    ping.Run(PhaseClock(NowNs(), warm, seconds * kPingShare, o.trace));
    big.Run(PhaseClock(NowNs(), warm, seconds * kBigShare, o.trace));
    ps.stream_traced_msgs += stream.traced_msgs();
    ps.idle_blocks += stream.idle_blocks();
    side.reconnects += CmiGetStats().wire_reconnects;
  });
}

// Set-up of one machine: from the initiator's RunConverse call until both
// PEs passed a first barrier, including the echo's start and the socket
// rendezvous.
double TimedWireStart(const Options& o, const std::string& rdv, int go) {
  const std::int64_t t0 = NowNs();
  std::int64_t t1 = 0;
  RunConverse(WireConfig(o, 0, rdv), [&](int, int) {
    if (write(go, "S", 1) != 1) {
      throw std::runtime_error("wire: cannot start the echo process");
    }
    CmiBarrierBlocking();
    t1 = NowNs();
  });
  return static_cast<double>(t1 - t0) * 1e-9;
}

// The echo process: runs the machine the initiator names, reports the stream
// main phase of each measured machine, and its Side when told to quit.
int EchoMain(const Options& o, const std::string& rdv, int ctl, int back) {
  Side side;
  auto ps = std::make_unique<PhaseStats>();
  const int machines = Machines(o);
  try {
    for (;;) {
      char cmd = 0;
      const ssize_t n = read(ctl, &cmd, 1);
      if (n < 0 && errno == EINTR) continue;
      if (n != 1 || cmd == 'Q') break;
      if (cmd == 'S') {
        RunConverse(WireConfig(o, 1, rdv),
                    [](int, int) { CmiBarrierBlocking(); });
      } else {
        RunMachine(o, 1, rdv, o.seconds / machines, side, *ps, nullptr, -1);
        if (write(back, &side.main, sizeof(side.main)) != sizeof(side.main)) {
          break;
        }
      }
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "e2ebench wire echo: %s\n", ex.what());
    ++side.failed;
  }
  side.attempted += ps->ping.attempted + ps->big.attempted;
  side.failed += ps->ping.failed + ps->big.failed;
  side.peak_rss_mb = PeakRssMb();
  return write(back, &side, sizeof(side)) == sizeof(side) ? 0 : 1;
}

}  // namespace

void RunWire(const Options& o, Result& r) {
  std::string tmpl = o.rdv + "/e2e-wire.XXXXXX";
  if (mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("wire: mkdtemp(" + tmpl + ") failed");
  }
  const std::string rdv = tmpl;
  int ctl[2], back[2];
  if (pipe(ctl) != 0 || pipe(back) != 0) {
    throw std::runtime_error("wire: pipe() failed");
  }
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child < 0) throw std::runtime_error("wire: fork() failed");
  if (child == 0) {
    close(ctl[1]);
    close(back[0]);
    _exit(EchoMain(o, rdv, ctl[0], back[1]));
  }
  close(ctl[0]);
  close(back[1]);

  Side side;
  auto ds = std::make_unique<PhaseStats>();
  Tracers tr;
  if (o.trace) {
    tr.stream = std::make_unique<Tracer>();
    tr.ping = std::make_unique<Tracer>();
    tr.big = std::make_unique<Tracer>();
  }
  EndToEnd e;
  std::string error;
  try {
    const int machines = Machines(o);
    for (int m = 0; m < machines; ++m) {
      SampleSetup(o, machines, e.setup_s,
                  [&] { return TimedWireStart(o, rdv, ctl[1]); });
      RunMachine(o, 0, rdv, o.seconds / machines, side, *ds, &tr, ctl[1]);
      MainPhase echo;
      if (read(back[0], &echo, sizeof(echo)) != sizeof(echo)) {
        throw std::runtime_error("the echo process stopped");
      }
      if (!o.trace && echo.msgs > 0) {
        // CPU per message on each side, added: scale the echo's CPU to
        // the initiator's message count.
        const double cpu_s = side.main.cpu_s +
                             echo.cpu_s * static_cast<double>(side.main.msgs) /
                                 static_cast<double>(echo.msgs);
        e.AddMachine(ds->stream_rate, static_cast<double>(side.main.msgs),
                     cpu_s, ds->ping.rtt_main_ns);
      }
    }
  } catch (const std::exception& ex) {
    error = ex.what();
  }
  (void)!write(ctl[1], "Q", 1);
  close(ctl[1]);
  Side echo;
  const bool got_echo = read(back[0], &echo, sizeof(echo)) == sizeof(echo);
  close(back[0]);
  int status = 0;
  while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  rmdir(rdv.c_str());
  if (!error.empty()) throw std::runtime_error("wire: " + error);
  if (!got_echo || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("wire: the echo process failed");
  }

  r.attempted = side.attempted + echo.attempted + ds->ping.attempted +
                ds->big.attempted;
  r.failed = side.failed + echo.failed + ds->ping.failed + ds->big.failed;
  if (!o.trace) {
    e.peak_rss_mb = std::max(PeakRssMb(), echo.peak_rss_mb);
    EmitEndToEnd(e, r);
    return;
  }

  Layers l = ds->mem;
  l.msg_alloc = tr.stream->SelfNs(kMsgAlloc);
  l.wire_send = tr.stream->SelfNs(kWireSend);
  l.ack_wait = tr.stream->SelfNs(kAckWait);
  l.handler_self = tr.ping->SelfNs(kHandler);
  l.sched_wake = ds->ping.wake_ns.Samples();
  l.rtt64k = ds->big.rtt_main_ns.Samples();
  const double frames =
      static_cast<double>(side.wire_frames + echo.wire_frames);
  l.msgs_per_syscall =
      Ratio(frames, static_cast<double>(side.wire_syscalls + echo.wire_syscalls));
  l.bytes_per_record =
      Ratio(static_cast<double>(side.wire_bytes + echo.wire_bytes), frames);
  l.reconnects = static_cast<double>(side.reconnects + echo.reconnects);
  l.idle_blocks_per_kmsg =
      Ratio(1000.0 * static_cast<double>(ds->idle_blocks),
            static_cast<double>(ds->stream_traced_msgs));
  // One 64 B round trip: two hops of (handler self + send call + wake-up),
  // the echo's hop assumed to mirror the initiator's.
  const std::vector<double> ping_send = tr.ping->SelfNs(kWireSend);
  l.attributed_frac = Ratio(
      2 * (Mean(l.handler_self) + Mean(ping_send) + Mean(l.sched_wake)),
      Mean(ds->ping.rtt_traced_ns.Samples()));
  l.overhead_frac = Ratio(Quantile(ds->ping.rtt_traced_ns.Samples(), 0.5),
                          Quantile(ds->ping.rtt_main_ns.Samples(), 0.5)) -
                    1.0;
  EmitLayers(l, r);
}

}  // namespace e2e
