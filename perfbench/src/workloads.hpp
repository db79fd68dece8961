// The benchmark's two workloads on the paper's figure-2 tree.
//
// Every workload builds the same tree: 6 gmetads and 12 pseudo-gmond
// clusters, N-level, archiving on, soft-state gmond timers, 200 hosts per
// cluster.  Soft-state timers make each emulator's report a pure function of
// (seed, clock second), which is what lets the oracle recompute it.
//
//   fig2_xml    every edge polls full XML (the paper's own wire)
//   fig2_delta  the same tree with delta federation on every edge
//
// For the whole run the root also serves a read mix over TCP loopback to a
// closed loop of 2 keep-alive clients.  Reads and rounds take turns: one
// round after every 150 replies, so publishes keep invalidating the
// response cache, and every round is a freshness sample.
//
// See README.md beside this file for why each workload exists and which
// end-to-end metric each layer metric should move.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::size_t hosts_per_cluster = 200;
  /// Set-ups per run; setup_s reports their median.
  std::size_t setups = 3;
  /// Chrome trace-event file the traced run writes its spans to ("" = none).
  std::string trace_file;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::string error;  ///< non-empty: the run could not produce its metrics
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< sample counts and other context
};

/// The workload names, in the order the benchmark lists them.
const std::vector<std::string>& workload_names();

/// Run one workload.  End-to-end metrics when !config.trace, per-layer
/// metrics when config.trace.
RunResult run_workload(const RunConfig& config);

/// Metric names are [A-Za-z0-9_.-]+.
bool valid_metric_name(std::string_view name);

}  // namespace perfbench
