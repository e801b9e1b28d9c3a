// fba_perfbench: runs one benchmark workload in this process, on one
// thread, and prints one JSON record of raw measurements on stdout.
// perfbench/run.py turns the record into metrics and gates it.
//
//   fba_perfbench --workload=sweep-sync --seed=1 --seconds=20 [--trace]
//
// --seed offsets the workload's base seed, from which every trial and
// instance seed derives; --seconds sets the op count (see op_count), so two
// runs with the same arguments execute the same op list.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

using perfbench::JsonWriter;

constexpr std::uint64_t kBaseSeed = 20130722;
/// Cold set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 7;

void usage() {
  std::fprintf(stderr,
               "usage: fba_perfbench --workload=NAME --seed=N --seconds=S "
               "[--trace]\nworkloads:");
  for (const auto& spec : perfbench::workloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const std::string s(text);
  out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && s[0] != '-';
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void write_layers(JsonWriter& w, const perfbench::LayerSamples& s) {
  w.key("layers").begin_object();
  w.array("rows_built", s.rows_built);
  w.array("lookup_ns", s.lookup_ns);
  w.array("deliveries", s.deliveries);
  w.array("queue_peak", s.queue_peak);
  w.array("sim_time", s.sim_time);
  w.array("fault_dropped", s.fault_dropped);
  w.array("retransmits", s.retransmits);
  w.array("acks", s.acks);
  w.array("dead", s.dead);
  w.array("dups", s.dups);
  w.array("bits_per_node", s.bits_per_node);
  w.array("candidates_per_node", s.candidates_per_node);
  w.array("max_deferred", s.max_deferred);
  w.array("mem_bytes_per_node", s.mem_bytes_per_node);
  w.array("op_minflt", s.op_minflt);
  w.end_object();
}

void write_spans(JsonWriter& w, const std::vector<perfbench::Span>& spans) {
  // [name, op, parent, start_s, end_s] rows keep the record compact.
  w.key("spans").begin_array();
  for (const perfbench::Span& s : spans) {
    w.begin_array()
        .value(std::string(s.name))
        .value(s.op)
        .value(s.parent)
        .value(s.start)
        .value(s.end)
        .end_array();
  }
  w.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value_of = [&](std::string_view flag) -> std::string_view {
      return arg.substr(flag.size());
    };
    bool ok = true;
    if (arg.starts_with("--workload=")) {
      workload = value_of("--workload=");
    } else if (arg.starts_with("--seed=")) {
      ok = parse_u64(value_of("--seed="), seed);
    } else if (arg.starts_with("--seconds=")) {
      ok = parse_u64(value_of("--seconds="), seconds) && seconds > 0;
    } else if (arg == "--trace") {
      trace = true;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "fba_perfbench: bad argument '%s'\n", argv[i]);
      usage();
      return 2;
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(workload);
  if (spec == nullptr || seconds == 0) {
    usage();
    return 2;
  }

  perfbench::RunPlan plan;
  plan.base_seed = kBaseSeed + seed;
  plan.ops = perfbench::op_count(*spec, static_cast<double>(seconds));
  plan.setups = kSetups;
  plan.trace = trace;

  perfbench::RunRecord rec;
  const perfbench::ProcCounters proc0 = perfbench::proc_counters();
  const std::int64_t steal0 = perfbench::steal_ticks();
  JsonWriter w;
  w.begin_object();
  w.field("workload", spec->name);
  w.field("seed", seed);
  w.field("base_seed", plan.base_seed);
  w.field("n", spec->n);
  w.field("ops", plan.ops);
  try {
    rec = perfbench::run_workload(*spec, plan);
  } catch (const std::exception& e) {
    // A throwing op fails the run, but the record still says how many ops
    // it attempted, so the failure counts against them.
    std::fprintf(stderr, "fba_perfbench: %s failed: %s\n", spec->name,
                 e.what());
    w.field("timed_ops", plan.ops);
    w.field("error", std::string(e.what()));
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 1;
  }
  const perfbench::ProcCounters proc1 = perfbench::proc_counters();
  const std::int64_t steal1 = perfbench::steal_ticks();

  w.field("warmup", spec->warmup);
  w.field("timed_ops", rec.timed_ops);
  w.array("setup_s", rec.setup_s);
  w.field("setup_minflt", rec.setup_minflt);
  w.array("op_ms", rec.op_ms);
  w.field("stream_p50_ms", rec.stream_p50_ms);
  w.field("stream_p90_ms", rec.stream_p90_ms);
  w.field("window_s", rec.window_s);
  w.field("fingerprint", hex(rec.fingerprint));
  w.field("wrong_ops", rec.wrong_ops);
  w.field("disagreements", rec.disagreements);
  w.field("peak_rss_kib", perfbench::peak_rss_kib());
  w.field("nivcsw", proc1.nivcsw - proc0.nivcsw);
  w.field("steal_ticks",
          steal0 < 0 || steal1 < 0 ? std::int64_t{-1} : steal1 - steal0);
  w.field("traced", rec.traced);
  if (rec.traced) {
    w.field("traced_fingerprint", hex(rec.traced_fingerprint));
    w.field("traced_wrong_ops", rec.traced_wrong_ops);
    w.field("span_ns", rec.span_ns);
    w.array("traced_op_ms", rec.traced_op_ms);
    write_layers(w, rec.layers);
    write_spans(w, rec.spans);
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
