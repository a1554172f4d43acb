// e2ebench: the runtime's end-to-end benchmark with a traced per-layer
// breakdown.  Usually started through run.py, which builds it first.
//
//   e2ebench --workload pingpong|fanin|rounds|wire --seed N --seconds S
//            --trace 0|1 [--smoke] [--plant K] [--rdv DIR]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every output check passed.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "pingpong|fanin|rounds|wire --seed N --seconds S --trace 0|1 "
               "[--smoke] [--plant K] [--rdv DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (v == nullptr) return Usage(("missing value for " + a).c_str());
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      o.trace = std::strtol(v, &end, 10) != 0;
    } else if (a == "--plant") {
      o.plant = std::strtol(v, &end, 10);
    } else if (a == "--rdv") {
      o.rdv = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("malformed value for " + a).c_str());
    }
    ++i;
  }
  if (!(o.seconds > 0 && o.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }

  e2e::Result r;
  try {
    if (o.workload == "pingpong") {
      e2e::RunPingpong(o, r);
    } else if (o.workload == "fanin") {
      e2e::RunFanin(o, r);
    } else if (o.workload == "rounds") {
      e2e::RunRounds(o, r);
    } else if (o.workload == "wire") {
      e2e::RunWire(o, r);
    } else {
      return Usage("unknown workload");
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "e2ebench: %s\n", ex.what());
    return 1;
  }

  bool finite = r.attempted > 0;
  for (const e2e::Metric& m : r.metrics) finite = finite && std::isfinite(m.value);
  const bool correct = finite && r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const e2e::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
