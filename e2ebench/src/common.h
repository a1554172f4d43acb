// Helpers that call into the runtime (bench.h itself stays runtime-free).
#pragma once

#include "bench.h"
#include "converse/converse.h"

namespace e2e {

/// Runs one machine that only passes a first barrier; returns the seconds
/// from the RunConverse call until every PE has passed it.
double TimedStart(const converse::MachineConfig& cfg);

/// Message-pool counter deltas over a traced phase (process-wide).
class MemDelta {
 public:
  MemDelta();
  /// Fills msg.pool_hit_frac and msg.remote_free_per_msg for `msgs`
  /// delivered messages.
  void Finish(double msgs, Layers& l) const;

 private:
  converse::CmiMemoryStats t0_;
};

}  // namespace e2e
