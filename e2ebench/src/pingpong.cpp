// pingpong: the paper's §5.1 experiment.  Two PEs, one 64 B message in
// flight, each handler re-sends it with CmiSyncSendAndFree.  Every hop is a
// wake-up, a dispatch and a send; no batching can hide any of them.
#include "pingpong.h"

#include <cstring>
#include <memory>

#include "common.h"

using namespace converse;

namespace e2e {
namespace {

// The first 32 payload bytes; the rest is the seeded body.
struct Head {
  std::uint64_t seq;
  std::int64_t peer_entry;    // echo: entry time of the ping this answers
  std::int64_t peer_sendret;  // echo: return time of its previous send
  std::uint32_t phase;
  std::uint32_t pad;
};
static_assert(sizeof(Head) == 32);

Head ReadHead(const void* msg) {
  Head h;
  std::memcpy(&h, CmiMsgPayload(msg), sizeof(h));
  return h;
}

void WriteHead(void* msg, const Head& h) {
  std::memcpy(CmiMsgPayload(msg), &h, sizeof(h));
}

std::uint64_t* Body(void* msg) {
  return reinterpret_cast<std::uint64_t*>(
      static_cast<char*>(CmiMsgPayload(msg)) + sizeof(Head));
}

}  // namespace

PingPong::PingPong(const Options& o, int initiator, int echo,
                   std::size_t payload, Layer send_layer, Tracer* tracer,
                   Stats& st)
    : o_(o), initiator_(initiator), echo_(echo), payload_(payload),
      send_layer_(send_layer), tracer_(tracer), body_((payload - sizeof(Head)) / 8), st_(st) {
  for (std::size_t i = 0; i < body_.size(); ++i) {
    body_[i] = Mix(o.seed ^ (payload << 32) ^ i);
  }
  ping_h_ = CmiRegisterHandler([this](void* m) { OnPing(m); });
  stop_h_ = CmiRegisterHandler([this](void* m) { OnStop(m); });
  next_seq_ = CmiMyPe() == initiator_ ? 1 : 0;
}

bool PingPong::BodyOk(const void* msg) const {
  return std::memcmp(static_cast<const char*>(CmiMsgPayload(msg)) +
                         sizeof(Head),
                     body_.data(), body_.size() * 8) == 0;
}

void PingPong::CountTraced() {
  if (traced_msgs_++ == 0) idle0_ = CmiGetStats().idle_blocks;
}

void PingPong::OnPing(void* msg) {
  const std::int64_t t_e = NowNs();
  Head h = ReadHead(msg);
  const Phase ph = static_cast<Phase>(h.phase);
  Scope span(ph == kTraced ? tracer_ : nullptr, kHandler);
  ++st_.attempted;
  if (h.seq != next_seq_ || !BodyOk(msg)) {
    ++st_.failed;
    std::memcpy(Body(msg), body_.data(), body_.size() * 8);
  }
  next_seq_ = h.seq + 2;
  h.seq += 1;

  if (CmiMyPe() == echo_) {
    if (ph == kTraced) CountTraced();
    h.peer_entry = t_e;
    h.peer_sendret = echo_ret_;
    WriteHead(msg, h);
    CmiGrabBuffer(&msg);
    {
      Scope send(ph == kTraced ? tracer_ : nullptr, send_layer_);
      CmiSyncSendAndFree(static_cast<unsigned>(initiator_),
                         static_cast<unsigned>(CmiMsgTotalSize(msg)), msg);
    }
    echo_ret_ = NowNs();
    return;
  }

  // Initiator: one round trip completed.
  const double rtt = static_cast<double>(t_e - t_sent_);
  if (ph == kMain) {
    if (main_t0_ == 0) {
      main_t0_ = t_e;
      cpu_t0_ = ProcessCpuS();
    } else {
      hops_ += 2;
    }
    st_.rate.Count(t_e, 2);
    st_.rtt_main_ns.Add(rtt);
  } else if (ph > kMain && main_t0_ != 0 && cpu_t1_ == 0) {
    cpu_t1_ = ProcessCpuS();
  }
  if (ph == kTraced) {
    CountTraced();
    st_.rtt_traced_ns.Add(rtt);
    st_.wake_ns.Add(static_cast<double>(h.peer_entry - t_ret_));
    if (pong_phase_ == kTraced && h.peer_sendret != 0) {
      st_.wake_ns.Add(
          static_cast<double>(t_pong_entry_ - h.peer_sendret));
    }
  }
  t_pong_entry_ = t_e;
  pong_phase_ = ph;

  const Phase now = clock_.At(t_e);
  if (now == kDone || (now == kTraced && tracer_ != nullptr &&
                       tracer_->Full())) {
    done_ = true;
    return;  // the MMI frees the message
  }
  h.phase = now;
  WriteHead(msg, h);
  if (o_.plant > 0 && ++pings_ % o_.plant == 0) {
    Body(msg)[0] ^= 1;  // planted corruption: the echo must count it
  }
  CmiGrabBuffer(&msg);
  t_sent_ = NowNs();
  {
    Scope send(now == kTraced ? tracer_ : nullptr, send_layer_);
    CmiSyncSendAndFree(static_cast<unsigned>(echo_),
                       static_cast<unsigned>(CmiMsgTotalSize(msg)), msg);
  }
  t_ret_ = NowNs();
}

void PingPong::Run(const PhaseClock& clock) {
  clock_ = clock;
  if (CmiMyPe() == initiator_) {
    std::vector<char> init(payload_);
    Head h{};
    h.phase = clock.At(NowNs());
    std::memcpy(init.data(), &h, sizeof(h));
    std::memcpy(init.data() + sizeof(h), body_.data(), body_.size() * 8);
    void* m = CmiMakeMessage(ping_h_, init.data(), payload_);
    t_sent_ = NowNs();
    CmiSyncSendAndFree(static_cast<unsigned>(echo_),
                       static_cast<unsigned>(CmiMsgTotalSize(m)), m);
    t_ret_ = NowNs();
    while (!done_) CsdScheduler(1);
    if (main_t0_ != 0) {
      if (cpu_t1_ == 0) cpu_t1_ = ProcessCpuS();
      st_.main_cpu_s += cpu_t1_ - cpu_t0_;
      st_.main_hops += hops_;
    }
    void* s = CmiMakeMessage(stop_h_, nullptr, 0);
    CmiSyncSendAndFree(static_cast<unsigned>(echo_),
                       static_cast<unsigned>(CmiMsgTotalSize(s)), s);
  } else if (CmiMyPe() == echo_) {
    while (!stopped_) CsdScheduler(1);
  }
  if (traced_msgs_ > 0) {
    st_.traced_msgs += traced_msgs_;
    st_.idle_blocks += CmiGetStats().idle_blocks - idle0_;
  }
}

void RunPingpong(const Options& o, Result& r) {
  MachineConfig cfg;
  cfg.npes = 2;
  cfg.seed = o.seed;
  EndToEnd e;

  std::unique_ptr<Tracer> tracers[2];
  if (o.trace) {
    for (auto& t : tracers) t = std::make_unique<Tracer>();
  }
  auto st = std::make_unique<PingPong::Stats[]>(2);
  const int machines = Machines(o);
  for (int m = 0; m < machines; ++m) {
    SampleSetup(o, machines, e.setup_s, [&] { return TimedStart(cfg); });
    RunConverse(cfg, [&](int pe, int) {
      PingPong pp(o, 0, 1, 64, kSendCall, tracers[pe].get(), st[pe]);
      CmiBarrierBlocking();
      pp.Run(PhaseClock(NowNs(), WarmSeconds(o), o.seconds / machines,
                        o.trace));
    });
    if (!o.trace) {
      PingPong::Stats& d = st[0];
      e.AddMachine(d.rate, static_cast<double>(d.main_hops), d.main_cpu_s,
                   d.rtt_main_ns);
      d.main_hops = 0;
      d.main_cpu_s = 0;
    }
  }
  r.attempted = st[0].attempted + st[1].attempted;
  r.failed = st[0].failed + st[1].failed;

  const PingPong::Stats& d = st[0];
  if (!o.trace) {
    e.peak_rss_mb = PeakRssMb();
    EmitEndToEnd(e, r);
    return;
  }

  Layers l;
  for (auto& t : tracers) {
    Append(l.send_call, t->SelfNs(kSendCall));
    Append(l.handler_self, t->SelfNs(kHandler));
  }
  l.sched_wake = d.wake_ns.Samples();
  l.idle_blocks_per_kmsg =
      Ratio(1000.0 * static_cast<double>(st[0].idle_blocks +
                                         st[1].idle_blocks),
            static_cast<double>(st[0].traced_msgs + st[1].traced_msgs));
  // One round trip = two hops of (handler self + send call + wake-up).
  l.attributed_frac =
      Ratio(2 * (Mean(l.handler_self) + Mean(l.send_call) +
                 Mean(l.sched_wake)),
            Mean(d.rtt_traced_ns.Samples()));
  l.overhead_frac = Ratio(Quantile(d.rtt_traced_ns.Samples(), 0.5),
                          Quantile(d.rtt_main_ns.Samples(), 0.5)) - 1.0;
  EmitLayers(l, r);
}

}  // namespace e2e
