#include "common.h"

namespace e2e {

double TimedStart(const converse::MachineConfig& cfg) {
  const std::int64_t t0 = NowNs();
  std::int64_t t1 = 0;
  converse::RunConverse(cfg, [&](int pe, int) {
    converse::CmiBarrierBlocking();
    if (pe == 0) t1 = NowNs();
  });
  return static_cast<double>(t1 - t0) * 1e-9;
}

MemDelta::MemDelta() : t0_(converse::CmiGetMemoryStats()) {}

void MemDelta::Finish(double msgs, Layers& l) const {
  const converse::CmiMemoryStats t1 = converse::CmiGetMemoryStats();
  const double hits = static_cast<double>(t1.pool_hits - t0_.pool_hits);
  const double misses =
      static_cast<double>(t1.pool_misses - t0_.pool_misses);
  l.pool_hit_frac = Ratio(hits, hits + misses);
  l.remote_free_per_msg =
      Ratio(static_cast<double>(t1.remote_frees - t0_.remote_frees), msgs);
}

void EmitEndToEnd(const EndToEnd& e, Result& r) {
  r.Add("setup_s", Quantile(e.setup_s, 0.5), "s");
  r.Add("peak_rss_mb", e.peak_rss_mb, "MiB");
  r.Add("msg_rate", Quantile(e.msg_rate, 0.5), "msgs/s");
  r.Add("cpu_us_per_msg", Quantile(e.cpu_us_per_msg, 0.5), "us");
  r.Add("lat_us_p50", Quantile(e.lat_p50_ns, 0.5) * 1e-3, "us");
  r.Add("lat_us_p90", Quantile(e.lat_p90_ns, 0.5) * 1e-3, "us");
}

void EmitLayers(const Layers& l, Result& r) {
  auto p50 = [](const std::vector<double>& v) { return Quantile(v, 0.5); };
  auto p90 = [](const std::vector<double>& v) { return Quantile(v, 0.9); };
  r.Add("msg.alloc_ns_p50", p50(l.msg_alloc), "ns");
  r.Add("msg.pool_hit_frac", l.pool_hit_frac, "ratio");
  r.Add("msg.remote_free_per_msg", l.remote_free_per_msg, "ratio");
  r.Add("send.call_ns_p50", p50(l.send_call), "ns");
  r.Add("send.call_ns_p90", p90(l.send_call), "ns");
  r.Add("send.credit_wait_us_p50", p50(l.credit_wait) * 1e-3, "us");
  r.Add("sched.gap_ns_p50", p50(l.sched_gap), "ns");
  r.Add("sched.wake_us_p50", p50(l.sched_wake) * 1e-3, "us");
  r.Add("sched.idle_blocks_per_kmsg", l.idle_blocks_per_kmsg, "count");
  r.Add("sched.enqueue_ns_p50", p50(l.enqueue), "ns");
  r.Add("sched.queue_wait_us_p50", p50(l.queue_wait) * 1e-3, "us");
  r.Add("handler.self_ns_p50", p50(l.handler_self), "ns");
  r.Add("stream.msgs_per_frame", l.msgs_per_frame, "ratio");
  r.Add("stream.flush_ns_p50", p50(l.flush), "ns");
  r.Add("stream.bcast_call_us_p50", p50(l.bcast_call) * 1e-3, "us");
  r.Add("stream.bcast_arrival_us_p90", p90(l.bcast_arrival) * 1e-3, "us");
  r.Add("stream.bcast_copies_per_bcast", l.bcast_copies_per_bcast, "ratio");
  r.Add("coll.allreduce_us_p50", p50(l.allreduce) * 1e-3, "us");
  r.Add("coll.straggler_us_p50", p50(l.straggler) * 1e-3, "us");
  r.Add("wire.send_call_ns_p50", p50(l.wire_send), "ns");
  r.Add("wire.msgs_per_syscall", l.msgs_per_syscall, "ratio");
  r.Add("wire.bytes_per_record", l.bytes_per_record, "B");
  r.Add("wire.ack_wait_us_p50", p50(l.ack_wait) * 1e-3, "us");
  r.Add("wire.reconnects", l.reconnects, "count");
  r.Add("wire.rtt64k_us_p50", p50(l.rtt64k) * 1e-3, "us");
  r.Add("trace.attributed_frac", l.attributed_frac, "ratio");
  r.Add("trace.overhead_frac", l.overhead_frac, "ratio");
}

}  // namespace e2e
