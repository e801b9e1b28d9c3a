// The benchmark's workloads and the two passes that run them.
//
// The untraced pass drives each workload through the entry point a user
// calls (exp::Sweep at one thread, exp::run_service with one worker, a
// serial loop over exp::run_aer_scale_trial) and times ops from outside.
// The traced pass replays the same op list by calling each layer's public
// functions in turn (preset resolution, world build, engine run, harvest),
// with a span around every call, and must reproduce the untraced
// fingerprint exactly.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "aer/config.h"
#include "trace.h"

namespace perfbench {

enum class EntryPoint { kSweep, kService, kScale };

struct WorkloadSpec {
  const char* name;
  EntryPoint entry;
  std::size_t n;
  fba::aer::Model model;
  const char* attack;
  const char* fault;     ///< fault preset; "" keeps reliable channels.
  const char* recovery;  ///< recovery preset; "" keeps the layer off.
  /// Algorithm 3 answer budget; 0 keeps the paper's ceil(log2 n)^2.
  std::size_t answer_budget;
  /// Untimed ops at the end of every set-up (sweeps and scale), or the
  /// instance count of one set-up stream (service).
  std::size_t warmup;
  /// Timed ops per second of requested run length: the op count of a run
  /// is a pure function of --seconds, never of the clock.
  double ops_per_second;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

/// Timed ops in a run of `seconds`; at least 100, so p90 has ten samples
/// beyond it.
std::size_t op_count(const WorkloadSpec& spec, double seconds);

struct RunPlan {
  std::uint64_t base_seed = 0;
  std::size_t ops = 0;
  std::size_t setups = 0;
  bool trace = false;
};

/// Per-op layer counters of the traced pass, one entry per timed op.
struct LayerSamples {
  std::vector<double> rows_built;
  std::vector<double> lookup_ns;
  std::vector<double> deliveries;
  std::vector<double> queue_peak;
  std::vector<double> sim_time;
  std::vector<double> fault_dropped;
  std::vector<double> retransmits;
  std::vector<double> acks;
  std::vector<double> dead;
  std::vector<double> dups;
  std::vector<double> bits_per_node;
  std::vector<double> candidates_per_node;
  std::vector<double> max_deferred;
  std::vector<double> mem_bytes_per_node;
  std::vector<double> op_minflt;
};

struct RunRecord {
  std::vector<double> setup_s;  ///< one entry per set-up.
  std::int64_t setup_minflt = 0;  ///< minor faults of the first (cold) set-up.
  /// Per-op wall latency of the timed ops (sweeps and scale).
  std::vector<double> op_ms;
  /// Service streams expose latency only as exp::ServiceLoad's histogram:
  /// its p50/p90 (ms) replace op_ms there.
  double stream_p50_ms = -1;
  double stream_p90_ms = -1;
  double window_s = 0;  ///< first to last timed op.
  std::size_t timed_ops = 0;
  std::uint64_t fingerprint = 0;
  std::size_t wrong_ops = 0;      ///< timed ops with a wrong decision.
  std::size_t disagreements = 0;  ///< ops where some correct node stalled.

  bool traced = false;
  std::uint64_t traced_fingerprint = 0;
  std::size_t traced_wrong_ops = 0;
  std::vector<double> traced_op_ms;
  double span_ns = 0;  ///< calibrated cost of one span (span_cost_ns).
  LayerSamples layers;
  std::vector<Span> spans;
};

RunRecord run_workload(const WorkloadSpec& spec, const RunPlan& plan);

}  // namespace perfbench
