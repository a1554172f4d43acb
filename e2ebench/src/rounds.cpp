// rounds: three PEs run bulk-synchronous steps with aggregation on.  Each
// step is a 16 KiB root broadcast (shared-payload path), seeded all-to-all
// 64 B updates that each receiver re-enqueues with CsdEnqueueIntPrio,
// CmiFlush, and a CmiAllReduceI64 of the update values.  The only workload
// where aggregation, the spanning-tree broadcast, collectives and priority
// queueing do most of the work.
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "common.h"

using namespace converse;

namespace e2e {
namespace {

constexpr int kNumPes = 3;
constexpr int kUpdatesPerDest = 32;
constexpr std::size_t kBcastBytes = 16384;  // >= the default bcast_share_min
constexpr std::size_t kMaxTracedSteps = std::size_t{1} << 16;

struct BcastHead {
  std::uint64_t step;
  std::int64_t t_call;  // root clock just before the broadcast call
  std::uint32_t phase;
  std::uint32_t stop;
  std::uint64_t pad;
};
constexpr std::size_t kBcastWords = (kBcastBytes - sizeof(BcastHead)) / 8;

struct Update {
  std::uint64_t step;
  std::uint32_t src, dst, idx;
  std::int32_t prio;
  std::uint64_t value;
  std::int64_t t_enq;  // receiver clock at CsdEnqueueIntPrio
  std::uint32_t phase;
  std::uint32_t pad[5];
};
static_assert(sizeof(Update) == 64);

std::uint64_t Key(std::uint64_t seed, std::uint64_t step, std::uint32_t src,
                  std::uint32_t dst, std::uint32_t idx) {
  return Mix(seed ^ (step << 20) ^ (std::uint64_t{src} << 14) ^
             (std::uint64_t{dst} << 8) ^ idx);
}
// 48-bit values, so a step's sum cannot overflow.
std::uint64_t Value(std::uint64_t key) { return key >> 16; }
std::int32_t Prio(std::uint64_t key) {
  return static_cast<std::int32_t>(key % 17) - 8;
}
std::uint64_t BcastWord(std::uint64_t seed, std::uint64_t step,
                        std::size_t i) {
  return Mix(seed ^ ~step) + i * 0x9e3779b97f4a7c15ULL;
}

// The closed-form all-reduce result of `step`: every update value.
std::int64_t StepSum(std::uint64_t seed, std::uint64_t step) {
  std::uint64_t sum = 0;
  for (std::uint32_t s = 0; s < kNumPes; ++s) {
    for (std::uint32_t d = 0; d < kNumPes; ++d) {
      if (s == d) continue;
      for (std::uint32_t i = 0; i < kUpdatesPerDest; ++i) {
        sum += Value(Key(seed, step, s, d, i));
      }
    }
  }
  return static_cast<std::int64_t>(sum);
}

constexpr double kUpdatesPerStep =
    kNumPes * (kNumPes - 1) * kUpdatesPerDest;

// Each PE writes only its own Stats while a machine runs.
struct Stats {
  std::uint64_t attempted = 0, failed = 0;
  // PE 0: step times and the main phase totals.
  Reservoir step_main_ns, step_traced_ns;
  RateWindows rate;  // update messages
  double main_cpu_s = 0;
  std::uint64_t main_steps = 0, traced_steps = 0;
  // Traced phase, per PE.
  Reservoir queue_wait_ns;
  std::vector<std::int64_t> bcast_arrival_ns, allreduce_entry_ns;
  CmiStats stats_delta;
  // PE 0 only: payload copies made by the traced broadcast calls, and the
  // pool counters.
  std::uint64_t bcast_copies = 0;
  Layers mem;
};

class Rounds {
 public:
  Rounds(const Options& o, Tracer* tracer, Stats& st)
      : o_(o), tracer_(tracer), st_(st) {
    bcast_h_ = CmiRegisterHandler([this](void* m) { OnBcast(m); });
    upd_h_ = CmiRegisterHandler([this](void* m) { OnUpdate(m); });
    apply_h_ = CmiRegisterHandler([this](void* m) { OnApply(m); });
    st_.bcast_arrival_ns.reserve(kMaxTracedSteps);
    st_.allreduce_entry_ns.reserve(kMaxTracedSteps);
  }
  Rounds(const Rounds&) = delete;
  Rounds& operator=(const Rounds&) = delete;

  void Run(const PhaseClock& clock) {
    const int me = CmiMyPe();
    void* bmsg = me == 0 ? CmiMakeMessage(bcast_h_, nullptr, kBcastBytes)
                         : nullptr;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
    for (std::uint32_t d = 0; d < kNumPes; ++d) {
      if (static_cast<int>(d) == me) continue;
      for (std::uint32_t i = 0; i < kUpdatesPerDest; ++i) order.emplace_back(d, i);
    }
    std::int64_t step_t0 = 0;
    for (std::uint64_t step = 0;; ++step) {
      if (me == 0) {
        step_t0 = NowNs();
        Phase ph = clock.At(step_t0);
        if (ph == kTraced &&
            (tracer_->Full() || st_.traced_steps >= kMaxTracedSteps)) {
          ph = kDone;
        }
        Broadcast(bmsg, step, ph);
      }
      while (bcast_seen_ <= step) CsdScheduler(1);
      if (stop_) break;
      Tracer* tr = phase_ == kTraced ? tracer_ : nullptr;
      if (tr != nullptr && !traced_) EnterTraced();
      SendUpdates(step, order, tr);
      {
        Scope flush(tr, kFlush);
        CmiFlush();
      }
      const int parity = static_cast<int>(step & 1);
      while (applied_[parity] < kUpdatesPerDest * (kNumPes - 1)) {
        CsdScheduler(1);
      }
      std::int64_t total;
      {
        if (tr != nullptr) st_.allreduce_entry_ns.push_back(NowNs());
        Scope ar(tr, kAllReduce);
        total = CmiAllReduceI64(static_cast<std::int64_t>(acc_[parity]),
                                CmiReducerSumI64());
      }
      ++st_.attempted;
      if (total != StepSum(o_.seed, step)) ++st_.failed;
      acc_[parity] = 0;
      applied_[parity] = 0;
      if (me == 0) StepDone(step_t0);
    }
    if (me == 0) {
      CmiFree(bmsg);
      if (st_.main_steps > 0 && !o_.trace) {
        st_.main_cpu_s += ProcessCpuS() - cpu_t0_;
      }
    }
    if (traced_) {
      const CmiStats now = CmiGetStats();
      CmiStats& d = st_.stats_delta;
      d.idle_blocks += now.idle_blocks - stats0_.idle_blocks;
      d.agg_frames_sent += now.agg_frames_sent - stats0_.agg_frames_sent;
      d.agg_msgs_batched += now.agg_msgs_batched - stats0_.agg_msgs_batched;
      if (mem_) {
        mem_->Finish(static_cast<double>(traced_steps_) * kUpdatesPerStep,
                     st_.mem);
      }
    }
  }

 private:
  void EnterTraced() {
    traced_ = true;
    stats0_ = CmiGetStats();
    if (CmiMyPe() == 0) mem_.emplace();
  }

  void Broadcast(void* bmsg, std::uint64_t step, Phase ph) {
    Tracer* tr = ph == kTraced ? tracer_ : nullptr;
    BcastHead h{};
    h.step = step;
    h.phase = ph;
    h.stop = ph == kDone;
    {
      Scope fill(tr, kHandler);
      auto* w = reinterpret_cast<std::uint64_t*>(
          static_cast<char*>(CmiMsgPayload(bmsg)) + sizeof(BcastHead));
      for (std::size_t i = 0; i < kBcastWords; ++i) {
        w[i] = BcastWord(o_.seed, step, i);
      }
    }
    const std::uint64_t copies0 =
        tr != nullptr ? CmiGetStats().bcast_payload_copies : 0;
    h.t_call = NowNs();
    std::memcpy(CmiMsgPayload(bmsg), &h, sizeof(h));
    {
      Scope call(tr, kBcastCall);
      CmiSyncBroadcastAll(static_cast<unsigned>(CmiMsgTotalSize(bmsg)), bmsg);
    }
    if (tr != nullptr) {
      st_.bcast_copies += CmiGetStats().bcast_payload_copies - copies0;
    }
  }

  void OnBcast(void* msg) {
    const std::int64_t t_e = NowNs();
    BcastHead h;
    std::memcpy(&h, CmiMsgPayload(msg), sizeof(h));
    Tracer* tr = h.phase == kTraced ? tracer_ : nullptr;
    Scope span(tr, kHandler);
    if (tr != nullptr) st_.bcast_arrival_ns.push_back(t_e - h.t_call);
    ++st_.attempted;
    const auto* w = reinterpret_cast<const std::uint64_t*>(
        static_cast<const char*>(CmiMsgPayload(msg)) + sizeof(BcastHead));
    bool ok = h.step == bcast_seen_ &&
              CmiMsgPayloadSize(msg) == kBcastBytes;
    for (std::size_t i = 0; ok && i < kBcastWords; ++i) {
      ok = w[i] == BcastWord(o_.seed, h.step, i);
    }
    if (!ok) ++st_.failed;
    phase_ = static_cast<Phase>(h.phase);
    stop_ = h.stop != 0;
    bcast_seen_ = h.step + 1;
  }

  void SendUpdates(std::uint64_t step,
                   std::vector<std::pair<std::uint32_t, std::uint32_t>>& order,
                   Tracer* tr) {
    const auto me = static_cast<std::uint32_t>(CmiMyPe());
    // Seeded destination order: a Fisher-Yates shuffle per step.
    std::uint64_t rng = Mix(o_.seed ^ (step << 8) ^ me);
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      rng = Mix(rng);
      std::swap(order[i], order[rng % (i + 1)]);
    }
    for (const auto& [dst, idx] : order) {
      void* m;
      {
        Scope alloc(tr, kMsgAlloc);
        m = CmiMakeMessage(upd_h_, nullptr, sizeof(Update));
      }
      Update u{};
      u.step = step;
      u.src = me;
      u.dst = dst;
      u.idx = idx;
      const std::uint64_t key = Key(o_.seed, step, me, dst, idx);
      u.prio = Prio(key);
      u.value = Value(key);
      u.phase = phase_;
      if (o_.plant > 0 && ++sent_ % static_cast<std::uint64_t>(o_.plant) == 0) {
        u.value ^= 1;  // planted corruption: the receiver must count it
      }
      std::memcpy(CmiMsgPayload(m), &u, sizeof(u));
      Scope send(tr, kSendCall);
      CmiSyncSendAndFree(dst, static_cast<unsigned>(CmiMsgTotalSize(m)), m);
    }
    st_.attempted += order.size();
  }

  // Network delivery: re-enqueue into the prioritized scheduler queue.
  void OnUpdate(void* msg) {
    Update u;
    std::memcpy(&u, CmiMsgPayload(msg), sizeof(u));
    Tracer* tr = u.phase == kTraced ? tracer_ : nullptr;
    Scope span(tr, kHandler);
    CmiGrabBuffer(&msg);
    CmiSetHandler(msg, apply_h_);
    u.t_enq = NowNs();
    std::memcpy(CmiMsgPayload(msg), &u, sizeof(u));
    Scope enq(tr, kEnqueue);
    CsdEnqueueIntPrio(msg, u.prio);
  }

  // Scheduler-queue dispatch: check and apply, then free.
  void OnApply(void* msg) {
    const std::int64_t t_e = NowNs();
    Update u;
    std::memcpy(&u, CmiMsgPayload(msg), sizeof(u));
    Tracer* tr = u.phase == kTraced ? tracer_ : nullptr;
    Scope span(tr, kHandler);
    if (tr != nullptr) st_.queue_wait_ns.Add(static_cast<double>(t_e - u.t_enq));
    const std::uint64_t key = Key(o_.seed, u.step, u.src, u.dst, u.idx);
    if (u.dst != static_cast<std::uint32_t>(CmiMyPe()) ||
        u.value != Value(key) || u.prio != Prio(key) ||
        CmiMsgSourcePe(msg) != static_cast<int>(u.src)) {
      ++st_.failed;
    }
    acc_[u.step & 1] += u.value;
    ++applied_[u.step & 1];
    CmiFree(msg);
  }

  // Root: the main phase counts from the end of its first step, so the
  // CPU stamp and the clock agree.
  void StepDone(std::int64_t step_t0) {
    const std::int64_t t1 = NowNs();
    const double dt = static_cast<double>(t1 - step_t0);
    if (phase_ == kMain) {
      if (main_t0_ == 0) {
        main_t0_ = t1;
        cpu_t0_ = ProcessCpuS();
      } else {
        st_.step_main_ns.Add(dt);
        ++st_.main_steps;
        st_.rate.Count(t1, kUpdatesPerStep);
      }
    } else if (phase_ == kTraced) {
      st_.step_traced_ns.Add(dt);
      ++st_.traced_steps;
      ++traced_steps_;
    }
  }

  const Options& o_;
  Tracer* tracer_;
  Stats& st_;
  int bcast_h_ = -1, upd_h_ = -1, apply_h_ = -1;
  std::uint64_t bcast_seen_ = 0;  // steps whose broadcast arrived here
  Phase phase_ = kWarm;
  bool stop_ = false, traced_ = false;
  std::uint64_t acc_[2] = {};
  int applied_[2] = {};
  std::uint64_t sent_ = 0;
  CmiStats stats0_;
  std::optional<MemDelta> mem_;
  std::int64_t main_t0_ = 0;
  double cpu_t0_ = 0;
  std::uint64_t traced_steps_ = 0;
};

}  // namespace

void RunRounds(const Options& o, Result& r) {
  MachineConfig cfg;
  cfg.npes = kNumPes;
  cfg.seed = o.seed;
  cfg.aggregate_sends = 1;
  EndToEnd e;

  std::unique_ptr<Tracer> tracers[kNumPes];
  if (o.trace) {
    for (auto& t : tracers) t = std::make_unique<Tracer>();
  }
  auto st = std::make_unique<Stats[]>(kNumPes);
  const int machines = Machines(o);
  for (int m = 0; m < machines; ++m) {
    SampleSetup(o, machines, e.setup_s, [&] { return TimedStart(cfg); });
    RunConverse(cfg, [&](int pe, int) {
      Rounds w(o, tracers[pe].get(), st[pe]);
      CmiBarrierBlocking();
      w.Run(PhaseClock(NowNs(), WarmSeconds(o), o.seconds / machines,
                       o.trace));
    });
    if (!o.trace) {
      Stats& root = st[0];
      e.AddMachine(root.rate,
                   static_cast<double>(root.main_steps) * kUpdatesPerStep,
                   root.main_cpu_s, root.step_main_ns);
      root.main_steps = 0;
      root.main_cpu_s = 0;
    }
  }
  for (int pe = 0; pe < kNumPes; ++pe) {
    r.attempted += st[pe].attempted;
    r.failed += st[pe].failed;
  }
  const Stats& root = st[0];
  if (!o.trace) {
    e.peak_rss_mb = PeakRssMb();
    EmitEndToEnd(e, r);
    return;
  }

  Layers l = root.mem;
  CmiStats sum;
  for (int pe = 0; pe < kNumPes; ++pe) {
    Append(l.msg_alloc, tracers[pe]->SelfNs(kMsgAlloc));
    Append(l.send_call, tracers[pe]->SelfNs(kSendCall));
    Append(l.enqueue, tracers[pe]->SelfNs(kEnqueue));
    Append(l.handler_self, tracers[pe]->SelfNs(kHandler));
    Append(l.flush, tracers[pe]->SelfNs(kFlush));
    Append(l.allreduce, tracers[pe]->SelfNs(kAllReduce));
    Append(l.queue_wait, st[pe].queue_wait_ns.Samples());
    const CmiStats& d = st[pe].stats_delta;
    sum.idle_blocks += d.idle_blocks;
    sum.agg_frames_sent += d.agg_frames_sent;
    sum.agg_msgs_batched += d.agg_msgs_batched;
  }
  l.bcast_call = tracers[0]->SelfNs(kBcastCall);
  // Per traced step: the last PE's broadcast arrival, and the spread of
  // all-reduce entry times.
  for (std::size_t s = 0; s < root.bcast_arrival_ns.size(); ++s) {
    std::int64_t arrival = 0, first = INT64_MAX, last = INT64_MIN;
    for (int pe = 0; pe < kNumPes; ++pe) {
      const Stats& p = st[pe];
      if (s < p.bcast_arrival_ns.size()) {
        arrival = std::max(arrival, p.bcast_arrival_ns[s]);
      }
      if (s < p.allreduce_entry_ns.size()) {
        first = std::min(first, p.allreduce_entry_ns[s]);
        last = std::max(last, p.allreduce_entry_ns[s]);
      }
    }
    l.bcast_arrival.push_back(static_cast<double>(arrival));
    if (last >= first) l.straggler.push_back(static_cast<double>(last - first));
  }
  const double steps = static_cast<double>(root.traced_steps);
  l.msgs_per_frame = Ratio(static_cast<double>(sum.agg_msgs_batched),
                           static_cast<double>(sum.agg_frames_sent));
  l.bcast_copies_per_bcast =
      Ratio(static_cast<double>(root.bcast_copies), steps);
  l.idle_blocks_per_kmsg = Ratio(1000.0 * static_cast<double>(sum.idle_blocks),
                                 steps * kUpdatesPerStep);
  // The root's own spans along each step, against the step time.
  double root_self = 0;
  for (int layer = 0; layer < kNumLayers; ++layer) {
    const std::vector<double> v = tracers[0]->SelfNs(static_cast<Layer>(layer));
    root_self += Mean(v) * static_cast<double>(v.size());
  }
  const std::vector<double> traced = root.step_traced_ns.Samples();
  l.attributed_frac = Ratio(root_self, Mean(traced) * steps);
  l.overhead_frac = Ratio(Quantile(traced, 0.5),
                          Quantile(root.step_main_ns.Samples(), 0.5)) - 1.0;
  EmitLayers(l, r);
}

}  // namespace e2e
