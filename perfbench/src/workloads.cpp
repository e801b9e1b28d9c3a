#include "workloads.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "aer/runner.h"
#include "aer/soa.h"
#include "exp/arena.h"
#include "exp/report.h"
#include "exp/scenario.h"
#include "exp/service.h"
#include "exp/sweep.h"

namespace perfbench {

namespace aer = fba::aer;
namespace exp = fba::exp;

const std::vector<WorkloadSpec>& workloads() {
  // Rates are about the reference box's throughput (perfbench/README.md),
  // so the timed window lasts about --seconds: at 20 s, 133 trials (sweeps,
  // scale) or 1333 instances (service). The service's tight answer budget
  // makes the stuffing roster overrun it, so deferred answers pile up.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"sweep-sync", EntryPoint::kSweep, 256, aer::Model::kSyncRushing, "none",
       "", "", 0, 2, 100.0 / 15},
      {"sweep-async-lossy", EntryPoint::kSweep, 80, aer::Model::kAsync, "none",
       "lossy-5pct", "arq-fast", 0, 2, 100.0 / 15},
      {"service-grudge", EntryPoint::kService, 64, aer::Model::kSyncRushing,
       "grudge-stuff", "", "", 8, 8, 1000.0 / 15},
      {"scale-soa", EntryPoint::kScale, 256, aer::Model::kSyncRushing, "none",
       "", "", 0, 2, 100.0 / 15},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::size_t op_count(const WorkloadSpec& spec, double seconds) {
  const double ops = std::round(seconds * spec.ops_per_second);
  return std::max<std::size_t>(100, static_cast<std::size_t>(ops));
}

namespace {

aer::AerConfig base_config(const WorkloadSpec& spec, std::uint64_t seed) {
  aer::AerConfig base;
  base.n = spec.n;
  base.model = spec.model;
  base.seed = seed;
  base.answer_budget = spec.answer_budget;
  return base;
}

exp::Grid grid_of(const WorkloadSpec& spec) {
  exp::Grid grid;
  grid.ns = {spec.n};
  grid.models = {spec.model};
  grid.strategies = {spec.attack};
  if (*spec.fault) grid.faults = {spec.fault};
  if (*spec.recovery) grid.recoveries = {spec.recovery};
  return grid;
}

exp::ServiceConfig service_config(const WorkloadSpec& spec,
                                  std::uint64_t seed,
                                  std::uint64_t instances) {
  exp::ServiceConfig config;
  config.base = base_config(spec, seed);
  config.attack = spec.attack;
  config.fault = spec.fault;
  config.base_seed = seed;
  config.instances = instances;
  config.workers = 1;
  config.warm = true;
  return config;
}

void note_outcome(const exp::TrialOutcome& out, std::size_t& wrong_ops,
                  std::size_t& disagreements) {
  if (out.wrong_decisions > 0) ++wrong_ops;
  if (!out.agreement) ++disagreements;
}

/// Keeps replayed lookups and serialized reports from being optimized away.
std::uint64_t g_sink = 0;

/// Mean cost of one warm dense-table lookup: I(gstring, x), H(gstring, x)
/// and J(x, r) for every correct x, replayed over the op's finished world.
/// A first pass fills any row the run did not touch; the timed passes
/// after it only hit built rows.
double replay_lookups(const aer::AerWorld& world) {
  constexpr int kPasses = 4;
  const aer::AerShared& shared = *world.shared;
  const fba::StringId g = world.view.gstring;
  std::uint64_t sink = 0;
  const auto pass = [&] {
    for (fba::NodeId x : world.correct) {
      sink += shared.push_quorum(g, x).slots[0];
      sink += shared.pull_quorum(g, x).slots[0];
      sink += shared.poll_list(x, x + 1).slots[0];
    }
  };
  pass();
  const double t0 = now_s();
  for (int i = 0; i < kPasses; ++i) pass();
  const double t1 = now_s();
  g_sink += sink;
  const double lookups =
      3.0 * kPasses * static_cast<double>(world.correct.size());
  return lookups > 0 ? (t1 - t0) * 1e9 / lookups : 0;
}

std::size_t rows_built(const aer::AerWorld& world) {
  const auto& tables = world.shared->tables;
  return tables.push.rows_built() + tables.pull.rows_built() +
         tables.poll.rows_built();
}

template <typename Run>
std::size_t queue_peak(const Run& run, aer::Model model) {
  if (model == aer::Model::kAsync) {
    return run.async ? run.async->queue_peak() : 0;
  }
  return run.sync ? run.sync->queue_peak() : 0;
}

void record_layers(LayerSamples& s, const aer::AerReport& report,
                   const aer::AerWorld& world, std::size_t peak,
                   std::size_t rows, std::int64_t minflt) {
  s.rows_built.push_back(static_cast<double>(rows));
  s.lookup_ns.push_back(replay_lookups(world));
  s.deliveries.push_back(static_cast<double>(report.total_messages));
  s.queue_peak.push_back(static_cast<double>(peak));
  s.sim_time.push_back(report.engine_time);
  s.fault_dropped.push_back(static_cast<double>(report.fault_dropped_msgs));
  s.retransmits.push_back(
      static_cast<double>(report.recovery_retransmit_msgs));
  s.acks.push_back(static_cast<double>(report.recovery_acked_msgs));
  s.dead.push_back(static_cast<double>(report.recovery_dead_msgs));
  s.dups.push_back(static_cast<double>(report.recovery_dup_msgs));
  s.bits_per_node.push_back(report.amortized_bits);
  s.candidates_per_node.push_back(
      report.correct_count
          ? static_cast<double>(report.sum_candidate_lists) /
                static_cast<double>(report.correct_count)
          : 0);
  s.max_deferred.push_back(static_cast<double>(report.max_deferred_answers));
  s.mem_bytes_per_node.push_back(report.mem_bytes_per_node);
  s.op_minflt.push_back(static_cast<double>(minflt));
}

exp::ReportMeta report_meta(std::uint64_t seed, std::size_t trials) {
  exp::ReportMeta meta;
  meta.tool = "fba_perfbench";
  meta.figure = "perfbench";
  meta.title = "benchmark run";
  meta.base_seed = seed;
  meta.trials = trials;
  return meta;
}

/// exp.fold + exp.report: the fixed-order reduction of the run's outcomes
/// and one exp::Report built and serialized from it (run-level spans).
std::uint64_t fold_and_report(Tracer& tracer, const exp::GridPoint& point,
                              const aer::AerConfig& base,
                              std::vector<exp::TrialOutcome>& outcomes) {
  exp::PointResult result;
  {
    Scope fold(&tracer, "exp.fold", -1);
    result.point = point;
    result.aggregate = exp::aggregate_outcomes(outcomes);
    result.outcomes = std::move(outcomes);
  }
  Scope report_span(&tracer, "exp.report", -1);
  exp::Report report(report_meta(base.seed, result.outcomes.size()));
  report.add_points("perfbench", base, {result});
  g_sink += report.to_json().size();
  return result.aggregate.fingerprint();
}

/// Runs `setup` in `count` forked children, one after another, and returns
/// the seconds each reported. The children fork before this process holds
/// any workload state, so every set-up starts as cold as a fresh process,
/// and their memory never counts toward this process's peak RSS.
std::vector<double> forked_setups(std::size_t count,
                                  const std::function<double()>& setup) {
  std::vector<double> seconds;
  for (std::size_t i = 0; i < count; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork() failed");
    if (pid == 0) {
      close(fds[0]);
      double s = -1;
      try {
        s = setup();
      } catch (...) {
      }
      const bool sent = write(fds[1], &s, sizeof(s)) == sizeof(s);
      _exit(sent && s >= 0 ? 0 : 1);
    }
    close(fds[1]);
    double s = -1;
    const ssize_t got = read(fds[0], &s, sizeof(s));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got != sizeof(s) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("a forked set-up failed");
    }
    seconds.push_back(s);
  }
  return seconds;
}

// ----- sweeps (exp::Sweep) ---------------------------------------------------

/// One exp::Sweep of `trials` trials at one thread, time-stamping every
/// finished trial through the progress callback. Returns the set-up time:
/// from before the Sweep is built to the end of its last warm-up trial.
double stamped_sweep(const WorkloadSpec& spec, const aer::AerConfig& base,
                     std::size_t trials, std::vector<double>& stamps,
                     std::vector<exp::PointResult>& results,
                     std::int64_t* setup_minflt) {
  stamps.clear();
  stamps.reserve(trials);
  std::int64_t warm_minflt = 0;
  const std::int64_t minflt0 = proc_counters().minflt;
  const double t0 = now_s();
  exp::Sweep sweep(base, grid_of(spec), trials);
  sweep.set_threads(1);
  sweep.set_progress([&](std::size_t, std::size_t) {
    stamps.push_back(now_s());
    if (stamps.size() == spec.warmup) warm_minflt = proc_counters().minflt;
  });
  results = sweep.run();
  if (setup_minflt) *setup_minflt = warm_minflt - minflt0;
  return stamps[spec.warmup - 1] - t0;
}

void sweep_untraced(const WorkloadSpec& spec, const RunPlan& plan,
                    RunRecord& rec) {
  const aer::AerConfig base = base_config(spec, plan.base_seed);
  const std::size_t total = spec.warmup + plan.ops;
  std::vector<double> stamps;
  std::vector<exp::PointResult> results;
  rec.setup_s = forked_setups(plan.setups - 1, [&] {
    return stamped_sweep(spec, base, spec.warmup, stamps, results, nullptr);
  });
  rec.setup_s.push_back(
      stamped_sweep(spec, base, total, stamps, results, &rec.setup_minflt));
  for (std::size_t i = spec.warmup; i < total; ++i) {
    rec.op_ms.push_back((stamps[i] - stamps[i - 1]) * 1e3);
  }
  rec.window_s = stamps.back() - stamps[spec.warmup - 1];
  const exp::PointResult& r = results.front();
  rec.fingerprint = r.aggregate.fingerprint();
  for (std::size_t i = spec.warmup; i < total; ++i) {
    note_outcome(r.outcomes[i], rec.wrong_ops, rec.disagreements);
  }
  rec.timed_ops = plan.ops;
}

/// The traced replay of a sweep or scale run: the same (point, trial) list,
/// one fresh arena, each trial decomposed into its public calls.
template <typename Arena, typename RunWorld>
void trials_traced(const WorkloadSpec& spec, const RunPlan& plan,
                   RunRecord& rec, Tracer& tracer, RunWorld run_world) {
  const aer::AerConfig base = base_config(spec, plan.base_seed);
  const std::vector<exp::GridPoint> points =
      exp::expand_grid(base, grid_of(spec));
  const exp::GridPoint& point = points.front();
  auto arena = std::make_unique<Arena>();
  const std::size_t total = spec.warmup + plan.ops;
  std::vector<exp::TrialOutcome> outcomes(total);
  for (std::size_t t = 0; t < total; ++t) {
    const bool timed = t >= spec.warmup;
    Tracer* tr = timed ? &tracer : nullptr;
    const std::int64_t op = static_cast<std::int64_t>(t - spec.warmup);
    const std::int64_t minflt0 = proc_counters().minflt;
    const double start = now_s();
    aer::AerReport report;
    {
      Scope op_span(tr, "exp.op", op);
      aer::AerConfig cfg;
      aer::StrategyFactory factory;
      {
        Scope s(tr, "exp.resolve", op, op_span.id());
        cfg = point.apply(base);
        cfg.seed = exp::trial_seed(base.seed, point.index, t);
        if (!point.fault.empty()) {
          cfg.fault_plan = exp::fault_plan_factory(point.fault);
        }
        if (!point.recovery.empty()) {
          cfg.recovery_plan = exp::recovery_plan_factory(point.recovery);
        }
        factory = exp::attack_factory(point.strategy);
      }
      {
        Scope s(tr, "aer.world_build", op, op_span.id());
        aer::build_aer_world_into(arena->world, cfg);
      }
      {
        Scope s(tr, "net.run", op, op_span.id());
        report = run_world(arena->world, arena->run, factory);
      }
      {
        Scope s(tr, "exp.harvest", op, op_span.id());
        exp::outcome_into(report, arena->world, outcomes[t]);
        outcomes[t].seed = cfg.seed;
      }
    }
    const double end = now_s();
    const std::int64_t minflt = proc_counters().minflt - minflt0;
    if (!timed) continue;
    rec.traced_op_ms.push_back((end - start) * 1e3);
    if (outcomes[t].wrong_decisions > 0) ++rec.traced_wrong_ops;
    record_layers(rec.layers, report, arena->world,
                  queue_peak(arena->run, spec.model), rows_built(arena->world),
                  minflt);
  }
  rec.traced_fingerprint = fold_and_report(tracer, point, base, outcomes);
}

// ----- service (exp::run_service) -------------------------------------------

void service_untraced(const WorkloadSpec& spec, const RunPlan& plan,
                      RunRecord& rec) {
  // A set-up is one fresh warm-up stream: plan resolution (grudge roster,
  // strategy, fault plan), a new arena and `warmup` instances.
  const auto setup = [&] {
    const double t0 = now_s();
    exp::run_service(service_config(spec, plan.base_seed, spec.warmup));
    return now_s() - t0;
  };
  rec.setup_s = forked_setups(plan.setups - 1, setup);
  const std::int64_t minflt0 = proc_counters().minflt;
  rec.setup_s.push_back(setup());
  rec.setup_minflt = proc_counters().minflt - minflt0;

  const exp::ServiceResult r =
      exp::run_service(service_config(spec, plan.base_seed, plan.ops));
  rec.window_s = r.load.wall_seconds;
  rec.stream_p50_ms = r.load.instance_wall_ms.quantile(0.5);
  rec.stream_p90_ms = r.load.instance_wall_ms.quantile(0.9);
  rec.timed_ops = r.stats.instances;
  rec.fingerprint = r.stats.fingerprint();
  // The stream's stats do not say which instance went wrong: any wrong
  // decision fails every op.
  rec.wrong_ops = r.stats.wrong_decisions > 0 ? plan.ops : 0;
  rec.disagreements = r.stats.instances - r.stats.agreements;
}

void service_traced(const WorkloadSpec& spec, const RunPlan& plan,
                    RunRecord& rec, Tracer& tracer) {
  const exp::ServiceConfig config =
      service_config(spec, plan.base_seed, plan.ops);
  const std::int32_t plan_span = tracer.begin("exp.plan", -1, -1);
  const exp::ServicePlan splan(config);
  const aer::StrategyFactory factory = exp::attack_factory(config.attack);
  tracer.end(plan_span);

  exp::TrialArena arena;
  aer::AerConfig cfg;
  exp::TrialOutcome out;
  exp::ServiceStats stats;
  for (std::uint64_t i = 0; i < config.instances; ++i) {
    const std::int64_t op = static_cast<std::int64_t>(i);
    const std::int64_t minflt0 = proc_counters().minflt;
    const double start = now_s();
    aer::AerReport report;
    {
      Scope op_span(&tracer, "exp.op", op);
      {
        Scope s(&tracer, "exp.resolve", op, op_span.id());
        splan.configure(cfg, i);
      }
      {
        Scope s(&tracer, "aer.world_build", op, op_span.id());
        if (splan.grudge()) {
          aer::build_aer_world_into(arena.world, cfg, splan.grudge_roster());
        } else {
          aer::build_aer_world_into(arena.world, cfg);
        }
      }
      {
        Scope s(&tracer, "net.run", op, op_span.id());
        report = aer::run_aer_world_arena(arena.world, arena.run, factory);
      }
      {
        Scope s(&tracer, "exp.harvest", op, op_span.id());
        exp::outcome_into(report, arena.world, out);
        out.seed = cfg.seed;
        stats.fold(out);
      }
    }
    const double end = now_s();
    rec.traced_op_ms.push_back((end - start) * 1e3);
    if (out.wrong_decisions > 0) ++rec.traced_wrong_ops;
    record_layers(rec.layers, report, arena.world,
                  queue_peak(arena.run, spec.model), rows_built(arena.world),
                  proc_counters().minflt - minflt0);
  }

  Scope report_span(&tracer, "exp.report", -1);
  exp::ReportPoint rp;
  rp.point.n = config.base.n;
  rp.point.model = config.base.model;
  rp.point.strategy = config.attack;
  rp.point.fault = config.fault.empty() ? "none" : config.fault;
  rp.provenance = exp::point_provenance(config.base, rp.point);
  rp.aggregate = stats.to_aggregate();
  exp::Report rep(report_meta(config.base_seed, config.instances));
  rep.add_point("perfbench", rp);
  g_sink += rep.to_json().size();
  rec.traced_fingerprint = stats.fingerprint();
}

// ----- scale (exp::run_aer_scale_trial) -------------------------------------

void scale_untraced(const WorkloadSpec& spec, const RunPlan& plan,
                    RunRecord& rec) {
  const aer::AerConfig base = base_config(spec, plan.base_seed);
  const std::size_t total = spec.warmup + plan.ops;
  std::vector<exp::TrialOutcome> outcomes(total);
  std::unique_ptr<exp::ScaleArena> arena;
  exp::GridPoint point;
  const auto trial = [&](std::size_t t) {
    aer::AerConfig cfg = point.apply(base);
    cfg.seed = exp::trial_seed(base.seed, point.index, t);
    exp::run_aer_scale_trial(cfg, point, *arena, outcomes[t]);
  };
  // A set-up: grid resolution, a fresh ScaleArena and the warm-up trials.
  const auto setup = [&] {
    const double t0 = now_s();
    point = exp::expand_grid(base, grid_of(spec)).front();
    arena = std::make_unique<exp::ScaleArena>();
    for (std::size_t t = 0; t < spec.warmup; ++t) trial(t);
    return now_s() - t0;
  };
  rec.setup_s = forked_setups(plan.setups - 1, setup);
  const std::int64_t minflt0 = proc_counters().minflt;
  rec.setup_s.push_back(setup());
  rec.setup_minflt = proc_counters().minflt - minflt0;

  rec.op_ms.reserve(plan.ops);
  const double window0 = now_s();
  double last = window0;
  for (std::size_t t = spec.warmup; t < total; ++t) {
    trial(t);
    const double now = now_s();
    rec.op_ms.push_back((now - last) * 1e3);
    last = now;
  }
  rec.window_s = last - window0;
  const exp::Aggregate agg = exp::aggregate_outcomes(outcomes);
  rec.fingerprint = agg.fingerprint();
  for (std::size_t t = spec.warmup; t < total; ++t) {
    note_outcome(outcomes[t], rec.wrong_ops, rec.disagreements);
  }
  rec.timed_ops = plan.ops;
}

}  // namespace

RunRecord run_workload(const WorkloadSpec& spec, const RunPlan& plan) {
  RunRecord rec;
  switch (spec.entry) {
    case EntryPoint::kSweep: sweep_untraced(spec, plan, rec); break;
    case EntryPoint::kService: service_untraced(spec, plan, rec); break;
    case EntryPoint::kScale: scale_untraced(spec, plan, rec); break;
  }
  if (!plan.trace) return rec;

  rec.traced = true;
  Tracer tracer(8 * (plan.ops + 4));
  switch (spec.entry) {
    case EntryPoint::kSweep:
      trials_traced<exp::TrialArena>(
          spec, plan, rec, tracer,
          [](aer::AerWorld& world, aer::RunArena& run,
             const aer::StrategyFactory& factory) {
            return aer::run_aer_world_arena(world, run, factory);
          });
      break;
    case EntryPoint::kService: service_traced(spec, plan, rec, tracer); break;
    case EntryPoint::kScale:
      trials_traced<exp::ScaleArena>(
          spec, plan, rec, tracer,
          [](aer::AerWorld& world, aer::SoaArena& run,
             const aer::StrategyFactory& factory) {
            return aer::run_aer_world_soa(world, run, aer::SoaRunOptions{},
                                          factory);
          });
      break;
  }
  rec.spans = tracer.spans();
  rec.span_ns = span_cost_ns();
  return rec;
}

}  // namespace perfbench
