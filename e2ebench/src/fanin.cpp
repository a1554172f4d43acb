// fanin: two producer PEs stream 64 B messages to one consumer PE, each
// under a credit window the consumer acks.  The many-to-one throughput
// shape: MPSC ring pushes, cross-PE remote frees and consumer dispatch do
// the work, and the consumer rarely parks.
#include <cstring>
#include <memory>
#include <optional>

#include "common.h"

using namespace converse;

namespace e2e {
namespace {

constexpr int kNumPes = 3;              // PE 0 consumes, PEs 1-2 produce
constexpr std::uint64_t kAckEvery = 64;  // consumer acks every 64 msgs
constexpr std::uint64_t kWindow = 256;   // unacked msgs a producer may have
constexpr std::uint64_t kGroups = kWindow / kAckEvery;

struct Payload {
  std::uint32_t producer;
  std::uint32_t phase;
  std::uint64_t seq;
  std::uint64_t words[6];
};
static_assert(sizeof(Payload) == 64);

// Seeded content of message `seq` from `producer`.
void Fill(std::uint64_t seed, std::uint32_t producer, std::uint64_t seq,
          std::uint64_t (&w)[6]) {
  const std::uint64_t base = Mix(seed ^ (std::uint64_t{producer} << 56) ^ seq);
  for (int i = 0; i < 6; ++i) w[i] = base + static_cast<std::uint64_t>(i);
}

// Each PE writes only its own Stats while a machine runs; they are read
// after RunConverse returns.
struct Stats {
  std::uint64_t attempted = 0, failed = 0;
  // Consumer, main phase of the last machine.
  RateWindows rate;
  double main_s = 0, main_cpu_s = 0;
  std::uint64_t main_msgs = 0;
  // Consumer, traced phase.
  double traced_s = 0;
  std::uint64_t traced_msgs = 0;
  Reservoir gap_ns;
  Layers mem;  // pool counters over the traced phase
  // Producers: credit-window turnaround in the main phase.
  Reservoir turn_main_ns;
  std::uint64_t idle_blocks = 0;  // traced phase
};

class Fanin {
 public:
  Fanin(const Options& o, Tracer* tracer, Stats& st)
      : o_(o), tracer_(tracer), st_(st) {
    sink_h_ = CmiRegisterHandler([this](void* m) { OnSink(m); });
    ack_h_ = CmiRegisterHandler([this](void* m) { OnAck(m); });
    done_h_ = CmiRegisterHandler([this](void* m) { OnDone(m); });
  }
  Fanin(const Fanin&) = delete;
  Fanin& operator=(const Fanin&) = delete;

  void Run(const PhaseClock& clock) {
    clock_ = clock;
    if (CmiMyPe() == 0) {
      Consume();
    } else {
      Produce();
    }
  }

 private:
  Tracer* TracerIf(Phase ph) const {
    return ph == kTraced ? tracer_ : nullptr;
  }

  void EnterTraced() {
    if (!traced_) {
      traced_ = true;
      idle0_ = CmiGetStats().idle_blocks;
    }
  }

  void Produce() {
    const int me = CmiMyPe();
    Phase ph = kWarm;
    for (;;) {
      if (sent_ - acked_ >= kWindow) {
        Scope wait(TracerIf(ph), kCreditWait);
        while (sent_ - acked_ >= kWindow) CsdScheduler(1);
      }
      if (sent_ % kAckEvery == 0) {  // a new ack group starts
        const std::int64_t now = NowNs();
        ph = clock_.At(now);
        if (ph == kTraced && tracer_->Full()) ph = kDone;
        if (ph == kDone) break;
        if (ph == kTraced) EnterTraced();
        group_t0_[(sent_ / kAckEvery) % kGroups] = now;
        group_phase_[(sent_ / kAckEvery) % kGroups] = ph;
      }
      void* m;
      {
        Scope alloc(TracerIf(ph), kMsgAlloc);
        m = CmiMakeMessage(sink_h_, nullptr, sizeof(Payload));
      }
      Payload p;
      p.producer = static_cast<std::uint32_t>(me);
      p.phase = ph;
      p.seq = sent_;
      Fill(o_.seed, p.producer, p.seq, p.words);
      if (o_.plant > 0 && (sent_ + 1) % static_cast<std::uint64_t>(o_.plant) == 0) {
        p.words[3] ^= 1;  // planted corruption: the consumer must count it
      }
      std::memcpy(CmiMsgPayload(m), &p, sizeof(p));
      {
        Scope send(TracerIf(ph), kSendCall);
        CmiSyncSendAndFree(0, static_cast<unsigned>(CmiMsgTotalSize(m)), m);
      }
      ++sent_;
    }
    st_.attempted += sent_;
    void* d = CmiMakeMessage(done_h_, &sent_, sizeof(sent_));
    CmiSyncSendAndFree(0, static_cast<unsigned>(CmiMsgTotalSize(d)), d);
    if (traced_) st_.idle_blocks += CmiGetStats().idle_blocks - idle0_;
  }

  void OnAck(void* msg) {
    std::uint64_t count;
    std::memcpy(&count, CmiMsgPayload(msg), sizeof(count));
    const std::int64_t now = NowNs();
    const std::uint64_t g = (count / kAckEvery - 1) % kGroups;
    if (group_phase_[g] == kMain) {
      st_.turn_main_ns.Add(static_cast<double>(now - group_t0_[g]));
    }
    acked_ = count;
  }

  void OnSink(void* msg) {
    const std::int64_t t_e = NowNs();
    Payload p;
    std::memcpy(&p, CmiMsgPayload(msg), sizeof(p));
    const Phase ph = static_cast<Phase>(p.phase);
    if (ph == kTraced && last_phase_ == kTraced) {
      st_.gap_ns.Add(static_cast<double>(t_e - last_ret_));
    }
    Scope span(TracerIf(ph), kHandler);
    if (ph == kMain) {
      if (main_t0_ == 0) {
        main_t0_ = t_e;
        cpu_t0_ = ProcessCpuS();
      } else {
        ++main_msgs_;
      }
      main_t1_ = t_e;
      st_.rate.Count(t_e, 1);
    } else if (ph > kMain && main_t0_ != 0 && cpu_t1_ == 0) {
      cpu_t1_ = ProcessCpuS();
    }
    if (ph == kTraced) {
      if (!traced_) {
        EnterTraced();
        mem_.emplace();
        traced_t0_ = t_e;
      }
      traced_t1_ = t_e;
      ++traced_msgs_;
    }

    const std::uint32_t src = p.producer;
    std::uint64_t want[6];
    if (src == 0 || src >= static_cast<std::uint32_t>(kNumPes)) {
      ++st_.failed;
    } else {
      Fill(o_.seed, src, p.seq, want);
      if (p.seq != next_[src] ||
          std::memcmp(want, p.words, sizeof(want)) != 0) {
        ++st_.failed;
      }
      next_[src] = p.seq + 1;
      if (++got_[src] % kAckEvery == 0) {
        void* a = CmiMakeMessage(ack_h_, &got_[src], sizeof(got_[src]));
        Scope send(TracerIf(ph), kSendCall);
        CmiSyncSendAndFree(src, static_cast<unsigned>(CmiMsgTotalSize(a)), a);
      }
    }
    last_phase_ = ph;
    last_ret_ = NowNs();
  }

  void OnDone(void* msg) {
    std::uint64_t sent;
    std::memcpy(&sent, CmiMsgPayload(msg), sizeof(sent));
    const int src = CmiMsgSourcePe(msg);
    // Exactly once: FIFO per sender puts this after all of src's data.
    if (got_[src] != sent) {
      st_.failed += got_[src] > sent ? got_[src] - sent : sent - got_[src];
    }
    ++done_;
  }

  void Consume() {
    while (done_ < kNumPes - 1) CsdScheduler(1);
    if (main_t0_ != 0) {
      if (cpu_t1_ == 0) cpu_t1_ = ProcessCpuS();
      st_.main_s += static_cast<double>(main_t1_ - main_t0_) * 1e-9;
      st_.main_cpu_s += cpu_t1_ - cpu_t0_;
      st_.main_msgs += main_msgs_;
    }
    if (traced_) {
      st_.idle_blocks += CmiGetStats().idle_blocks - idle0_;
      st_.traced_s += static_cast<double>(traced_t1_ - traced_t0_) * 1e-9;
      st_.traced_msgs += traced_msgs_;
      mem_->Finish(static_cast<double>(traced_msgs_), st_.mem);
    }
  }

  const Options& o_;
  Tracer* tracer_;
  Stats& st_;
  PhaseClock clock_;
  int sink_h_ = -1, ack_h_ = -1, done_h_ = -1;
  bool traced_ = false;
  std::uint64_t idle0_ = 0;
  // Producer state.
  std::uint64_t sent_ = 0, acked_ = 0;
  std::int64_t group_t0_[kGroups] = {};
  Phase group_phase_[kGroups] = {};
  // Consumer state.
  std::uint64_t next_[kNumPes] = {}, got_[kNumPes] = {};
  int done_ = 0;
  Phase last_phase_ = kWarm;
  std::int64_t last_ret_ = 0;
  std::int64_t main_t0_ = 0, main_t1_ = 0, traced_t0_ = 0, traced_t1_ = 0;
  double cpu_t0_ = 0, cpu_t1_ = 0;
  std::uint64_t main_msgs_ = 0, traced_msgs_ = 0;
  std::optional<MemDelta> mem_;
};

}  // namespace

void RunFanin(const Options& o, Result& r) {
  MachineConfig cfg;
  cfg.npes = kNumPes;
  cfg.seed = o.seed;
  EndToEnd e;

  std::unique_ptr<Tracer> tracers[kNumPes];
  if (o.trace) {
    for (auto& t : tracers) t = std::make_unique<Tracer>();
  }
  auto st = std::make_unique<Stats[]>(kNumPes);
  Reservoir turn;  // both producers' turnarounds of one machine
  const int machines = Machines(o);
  for (int m = 0; m < machines; ++m) {
    SampleSetup(o, machines, e.setup_s, [&] { return TimedStart(cfg); });
    RunConverse(cfg, [&](int pe, int) {
      Fanin f(o, tracers[pe].get(), st[pe]);
      CmiBarrierBlocking();
      f.Run(PhaseClock(NowNs(), WarmSeconds(o), o.seconds / machines,
                       o.trace));
    });
    if (!o.trace) {
      Stats& c = st[0];
      for (int pe = 1; pe < kNumPes; ++pe) {
        for (double x : st[pe].turn_main_ns.Samples()) turn.Add(x);
        st[pe].turn_main_ns.Clear();
      }
      e.AddMachine(c.rate, static_cast<double>(c.main_msgs), c.main_cpu_s,
                   turn);
      c.main_msgs = 0;
      c.main_s = c.main_cpu_s = 0;
    }
  }
  std::uint64_t idle_blocks = 0;
  for (int pe = 0; pe < kNumPes; ++pe) {
    r.attempted += st[pe].attempted;
    r.failed += st[pe].failed;
    idle_blocks += st[pe].idle_blocks;
  }
  const Stats& c = st[0];
  if (!o.trace) {
    e.peak_rss_mb = PeakRssMb();
    EmitEndToEnd(e, r);
    return;
  }

  Layers l = c.mem;
  std::vector<double> consumer_send = tracers[0]->SelfNs(kSendCall);
  for (int pe = 0; pe < kNumPes; ++pe) {
    Append(l.msg_alloc, tracers[pe]->SelfNs(kMsgAlloc));
    Append(l.send_call, tracers[pe]->SelfNs(kSendCall));
    Append(l.credit_wait, tracers[pe]->SelfNs(kCreditWait));
  }
  l.handler_self = tracers[0]->SelfNs(kHandler);
  l.sched_gap = c.gap_ns.Samples();
  const double msgs = static_cast<double>(c.traced_msgs);
  l.idle_blocks_per_kmsg =
      Ratio(1000.0 * static_cast<double>(idle_blocks), msgs);
  // The consumer is the bottleneck: its gaps, handler bodies and ack sends
  // should tile the traced window.
  l.attributed_frac =
      Ratio((Mean(l.sched_gap) + Mean(l.handler_self)) * msgs +
                Mean(consumer_send) * static_cast<double>(consumer_send.size()),
            c.traced_s * 1e9);
  const double rate_traced = Ratio(msgs, c.traced_s);
  const double rate_main = Ratio(static_cast<double>(c.main_msgs), c.main_s);
  l.overhead_frac = Ratio(rate_main, rate_traced) - 1.0;
  EmitLayers(l, r);
}

}  // namespace e2e
