// Shared pieces of the end-to-end benchmark: options, the phase clock, the
// span tracer and the result record every workload fills in.
//
// The benchmark drives the runtime through its public API only.  Spans are
// recorded from the benchmark's own code around calls into each layer
// (see README.md, "How the traced run works").
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system, every thread) in seconds.
inline double ProcessCpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

/// Peak resident set of this process in MiB.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// 64-bit mixer (splitmix64 finaliser): every seeded value in the
/// benchmark is Mix() of the seed and the value's coordinates.
inline std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: short warm-up and few set-up repetitions (self-tests).
  bool smoke = false;
  /// Planted-corruption self-test: when > 0, every plant-th message of the
  /// checked stream is corrupted after it is built, so the receiver's
  /// checks must count failures.
  long plant = 0;
  /// Directory for the wire workload's Unix-socket rendezvous.
  std::string rdv = ".";
};

/// The phases of one measured machine.  Untraced runs: warm-up, then the
/// measured phase.  Traced runs: warm-up, an untraced phase that is the
/// baseline for trace.overhead_frac, then the traced phase.
enum Phase : std::uint8_t { kWarm = 0, kMain = 1, kTraced = 2, kDone = 3 };

struct PhaseClock {
  std::int64_t warm_end = 0, main_end = 0, traced_end = 0;

  PhaseClock() = default;
  /// `seconds` of measurement after the warm-up; a traced run splits it
  /// evenly between the untraced baseline and the traced phase.
  PhaseClock(std::int64_t t0, double warm_s, double seconds, bool trace) {
    auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
    warm_end = t0 + ns(warm_s);
    main_end = warm_end + ns(trace ? seconds / 2 : seconds);
    traced_end = trace ? main_end + ns(seconds / 2) : main_end;
  }
  Phase At(std::int64_t t) const {
    if (t < warm_end) return kWarm;
    if (t < main_end) return kMain;
    if (t < traced_end) return kTraced;
    return kDone;
  }
};

/// An untraced run splits its measured time over this many machines of
/// half a second each: the kernel places a machine's PE threads once, and
/// placements differ by up to 1.5x in message rate, so one long machine
/// repeats worse than many short ones.  A traced run uses one machine.
inline int Machines(const Options& o) {
  if (o.trace) return 1;
  return std::max(1, static_cast<int>(2 * o.seconds + 0.5));
}

/// Warm-up of each machine (of each phase, for wire), discarded before
/// timing.
inline double WarmSeconds(const Options&) { return 0.05; }

// ---------------------------------------------------------------------------
// Tracer: one per PE, preallocated; Open/Close take no lock and allocate
// nothing.  Self time = duration minus the time covered by child spans.
// ---------------------------------------------------------------------------

enum Layer : std::uint8_t {
  kMsgAlloc,      // CmiMakeMessage
  kSendCall,      // local CmiSyncSendAndFree
  kCreditWait,    // producer blocked on its window ack
  kHandler,       // benchmark handler bodies
  kEnqueue,       // CsdEnqueueIntPrio
  kFlush,         // CmiFlush
  kBcastCall,     // root CmiSyncBroadcastAll
  kAllReduce,     // CmiAllReduceI64
  kWireSend,      // remote CmiSyncSendAndFree
  kAckWait,       // wire initiator blocked on a burst ack
  kNumLayers
};

struct Span {
  std::int64_t t0 = 0, t1 = 0, child = 0;
  Layer layer = kHandler;
};

class Tracer {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 19;

  Tracer() : spans_(kCapacity) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// True once the buffer cannot take another op's spans; the traced phase
  /// ends there.
  bool Full() const { return n_ + 64 >= spans_.size(); }

  int Open(Layer l) {
    if (n_ >= spans_.size() || depth_ == kMaxDepth) return -1;
    const int i = static_cast<int>(n_++);
    Span& s = spans_[static_cast<std::size_t>(i)];
    s.layer = l;
    s.child = 0;
    s.t0 = NowNs();
    stack_[depth_++] = i;
    return i;
  }
  void Close(int i) {
    if (i < 0) return;
    Span& s = spans_[static_cast<std::size_t>(i)];
    s.t1 = NowNs();
    --depth_;
    if (depth_ > 0) {
      spans_[static_cast<std::size_t>(stack_[depth_ - 1])].child +=
          s.t1 - s.t0;
    }
  }

  /// Self times (ns) of every closed span of layer `l`.
  std::vector<double> SelfNs(Layer l) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < n_; ++i) {
      const Span& s = spans_[i];
      if (s.layer == l && s.t1 != 0) {
        out.push_back(static_cast<double>(s.t1 - s.t0 - s.child));
      }
    }
    return out;
  }

 private:
  static constexpr int kMaxDepth = 8;
  std::vector<Span> spans_;
  std::size_t n_ = 0;
  int stack_[kMaxDepth] = {};
  int depth_ = 0;
};

/// Scoped span; a null tracer (untraced phase) records nothing.
class Scope {
 public:
  Scope(Tracer* t, Layer l) : t_(t), i_(t != nullptr ? t->Open(l) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->Close(i_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int i_;
};

// ---------------------------------------------------------------------------
// Statistics and the result record.
// ---------------------------------------------------------------------------

/// Quantile with linear interpolation between order statistics; 0 for an
/// empty sample (a layer the workload does not exercise).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Appends `src` to `dst` (merging per-PE samples).
inline void Append(std::vector<double>& dst, const std::vector<double>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Uniform sample of a stream of values in a fixed, preallocated buffer, so
/// the memory a run touches does not grow with the number of operations
/// (peak_rss_mb must not move when a change makes the loop faster).
class Reservoir {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 17;

  Reservoir() : v_(kCapacity) {}
  void Add(double x) {
    if (n_ < v_.size()) {
      v_[n_] = x;
    } else {
      rng_ ^= rng_ << 13;
      rng_ ^= rng_ >> 7;
      rng_ ^= rng_ << 17;
      const std::uint64_t j = rng_ % (n_ + 1);
      if (j < v_.size()) v_[j] = x;
    }
    ++n_;
  }
  void Clear() { n_ = 0; }
  std::vector<double> Samples() const {
    return {v_.begin(),
            v_.begin() + static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(
                             n_, v_.size()))};
  }

 private:
  std::vector<double> v_;
  std::uint64_t n_ = 0;
  std::uint64_t rng_ = 0x2545f4914f6cdd1dULL;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Set-up time samples, taken in slices before each measured machine so
/// that they spread over the whole run: 300 timed machine starts in all,
/// after 5 discarded ones.  `start_once` runs one machine and returns the
/// seconds from the RunConverse call until every PE passed the first
/// barrier.  setup_s is the median of the samples.
template <class F>
void SampleSetup(const Options& o, int machines, std::vector<double>& out,
                 F&& start_once) {
  if (o.trace) return;
  if (out.empty()) {
    for (int i = 0; i < (o.smoke ? 1 : 5); ++i) start_once();
  }
  const int reps = o.smoke ? 3 : (300 + machines - 1) / machines;
  for (int i = 0; i < reps; ++i) out.push_back(start_once());
}

/// Throughput of a measured phase as the median over its 10 ms windows: a
/// window in which the host preempted a PE thread reads low, and the median
/// ignores it unless most windows do.  The mean over the phase does not:
/// on a shared host it moved pingpong's rate by 16% between runs whose
/// median round trip moved 3%.
class RateWindows {
 public:
  static constexpr std::int64_t kWindowNs = 10'000'000;

  RateWindows() { rates_.reserve(4096); }
  /// `n` more operations completed at time `t` (non-decreasing).  A
  /// window's rate is the work completed after its first event over the
  /// time from its first event to its last, so it is not quantized.
  void Count(std::int64_t t, double n) {
    if (t >= w0_ + kWindowNs) {
      Close();
      w0_ = t;
      first_ = last_ = t;
      return;
    }
    last_ = t;
    work_ += n;
  }
  /// Median rate (per second) of the closed windows; starts over.
  double TakeMedian() {
    Close();
    const double r = Quantile(rates_, 0.5);
    rates_.clear();
    w0_ = INT64_MIN / 2;
    return r;
  }

 private:
  void Close() {
    if (last_ > first_ && rates_.size() < rates_.capacity()) {
      rates_.push_back(work_ * 1e9 / static_cast<double>(last_ - first_));
    }
    work_ = 0;
    first_ = last_ = 0;
  }

  std::vector<double> rates_;
  std::int64_t w0_ = INT64_MIN / 2, first_ = 0, last_ = 0;
  double work_ = 0;
};

/// The end-to-end figures every workload reports (untraced run).  Rates,
/// CPU and latency quantiles are taken per machine and reported as the
/// median over machines, so one machine slowed by a neighbour on the host
/// does not move the result.
struct EndToEnd {
  std::vector<double> setup_s;
  double peak_rss_mb = 0;
  std::vector<double> msg_rate;        // msgs/s in the measured phase
  std::vector<double> cpu_us_per_msg;  // process CPU per delivered message
  std::vector<double> lat_p50_ns, lat_p90_ns;  // per closed-loop operation

  /// Adds one machine's measured phase: its rate windows and latency
  /// samples (both consumed), and `msgs` delivered for `cpu_s` of process
  /// CPU.
  void AddMachine(RateWindows& rate, double msgs, double cpu_s,
                  Reservoir& lat) {
    const double r = rate.TakeMedian();
    if (r > 0) msg_rate.push_back(r);
    if (msgs > 0) cpu_us_per_msg.push_back(cpu_s * 1e6 / msgs);
    const std::vector<double> v = lat.Samples();
    if (!v.empty()) {
      lat_p50_ns.push_back(Quantile(v, 0.5));
      lat_p90_ns.push_back(Quantile(v, 0.9));
    }
    lat.Clear();
  }
};
void EmitEndToEnd(const EndToEnd& e, Result& r);

/// Per-layer figures of one traced run.  Samples are in ns; a layer the
/// workload does not exercise keeps its empty sample or zero ratio and is
/// reported as 0.
struct Layers {
  std::vector<double> msg_alloc, send_call, credit_wait, sched_gap,
      sched_wake, enqueue, queue_wait, handler_self, flush, bcast_call,
      bcast_arrival, allreduce, straggler, wire_send, ack_wait, rtt64k;
  double pool_hit_frac = 0, remote_free_per_msg = 0, idle_blocks_per_kmsg = 0,
         msgs_per_frame = 0, bcast_copies_per_bcast = 0, msgs_per_syscall = 0,
         bytes_per_record = 0, reconnects = 0, attributed_frac = 0,
         overhead_frac = 0;
};
void EmitLayers(const Layers& l, Result& r);

// Workload entry points (one per source file).  Each fills `r` with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
void RunPingpong(const Options& o, Result& r);
void RunFanin(const Options& o, Result& r);
void RunRounds(const Options& o, Result& r);
void RunWire(const Options& o, Result& r);

}  // namespace e2e
