// The ping-pong loop shared by the pingpong workload and the wire
// workload's round-trip phases: one message in flight between an initiator PE
// and an echo PE, re-sent by each handler with CmiSyncSendAndFree.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"

namespace e2e {

class PingPong {
 public:
  struct Stats {
    std::uint64_t attempted = 0, failed = 0;
    Reservoir rtt_main_ns, rtt_traced_ns;
    Reservoir wake_ns;  // traced phase, both directions
    // Main phase (initiator side): the rate and CPU figures.
    RateWindows rate;
    double main_cpu_s = 0;
    std::uint64_t main_hops = 0;
    // Traced phase: messages this PE received, and its idle blocks.
    std::uint64_t traced_msgs = 0, idle_blocks = 0;
  };

  /// Registers this loop's handlers; construct in the same order on every
  /// PE (and in both processes of the wire workload).  `payload` bytes per
  /// message, at least 64; send calls are traced as `send_layer`.  The
  /// loop adds its figures to `st`, which may outlive the machine and
  /// collect several.
  PingPong(const Options& o, int initiator, int echo, std::size_t payload,
           Layer send_layer, Tracer* tracer, Stats& st);
  PingPong(const PingPong&) = delete;
  PingPong& operator=(const PingPong&) = delete;

  /// Runs the loop through the phases of `clock` on the initiator PE and
  /// echoes on the echo PE; returns when the initiator has stopped the echo.
  /// Failure counts are local to the calling PE.
  void Run(const PhaseClock& clock);

 private:
  void OnPing(void* msg);
  void OnStop(void*) { stopped_ = true; }
  bool BodyOk(const void* msg) const;
  void CountTraced();

  const Options& o_;
  int initiator_, echo_;
  std::size_t payload_;
  Layer send_layer_;
  Tracer* tracer_;
  std::vector<std::uint64_t> body_;  // expected body words
  PhaseClock clock_;
  int ping_h_ = -1, stop_h_ = -1;
  bool stopped_ = false, done_ = false;
  std::uint64_t next_seq_ = 0;
  long pings_ = 0;
  // Initiator-side stamps of the last ping and the last pong.
  std::int64_t t_sent_ = 0, t_ret_ = 0, t_pong_entry_ = 0;
  Phase pong_phase_ = kWarm;
  // Echo-side stamp of its last send return.
  std::int64_t echo_ret_ = 0;
  std::uint64_t idle0_ = 0;
  // This machine's main phase window (initiator side).
  std::int64_t main_t0_ = 0;
  double cpu_t0_ = 0, cpu_t1_ = 0;
  std::uint64_t hops_ = 0, traced_msgs_ = 0;
  Stats& st_;
};

}  // namespace e2e
