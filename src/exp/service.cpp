#include "exp/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>

#include "adversary/adversary.h"
#include "exp/scenario.h"
#include "support/siphash.h"
#include "svc/pipeline.h"

namespace fba::exp {

std::uint64_t instance_seed(std::uint64_t base_seed, std::uint64_t instance) {
  // Distinct SipHash key from exp::trial_seed's, so a service stream and a
  // sweep on the same base seed draw unrelated instance seeds.
  const std::uint64_t seed =
      siphash_words(SipKey{base_seed, 0x7376632d696e7374ull}, {instance});
  return seed == 0 ? 1 : seed;
}

// ----- ServicePlan -----------------------------------------------------------

ServicePlan::ServicePlan(const ServiceConfig& config) : config_(config) {
  // Resolving the names up front validates them (ConfigError on typos) and
  // moves every allocation out of the per-instance path.
  strategy_ = attack_factory(config.attack);
  base_fault_plan_ = fault_plan_factory(config.fault);
  grudge_ = is_grudge_attack(config.attack);
  slow_burn_ = config.fault == "slow-burn-churn";
  if (grudge_) {
    // The grudge roster: drawn ONCE from the service seed (not from any
    // instance seed), then pinned across the whole stream. Keyed separately
    // from instance_seed so roster and instance randomness are unrelated.
    const std::size_t n = config.base.n;
    const std::size_t t = config.base.resolved_t();
    Rng grudge_rng(
        siphash_words(SipKey{config.base_seed, 0x7376632d67727564ull},
                      {static_cast<std::uint64_t>(n)}));
    roster_ = adv::random_corruption(n, t, grudge_rng);
  }
}

void ServicePlan::configure(aer::AerConfig& cfg, std::uint64_t instance) const {
  cfg = config_.base;  // vector members copy-assign with capacity reuse.
  cfg.seed = instance_seed(config_.base_seed, instance);
  cfg.fault_plan = base_fault_plan_;
  if (slow_burn_) {
    // The slow burn: churn ramps linearly 5% -> 25% over the first 32
    // instances, then stays at 25% — a service-lifetime degradation no
    // single-trial preset can express. Pure function of the instance index,
    // so any worker computes the same plan.
    const double ramp =
        std::min(1.0, static_cast<double>(instance) / 32.0);
    cfg.fault_plan.churns.front().fraction = 0.05 + 0.20 * ramp;
  }
}

void ServicePlan::run_instance(std::uint64_t instance, aer::AerConfig& cfg,
                               TrialArena& arena, TrialOutcome& out) const {
  using clock = std::chrono::steady_clock;
  configure(cfg, instance);
  const auto t0 = clock::now();
  if (grudge_) {
    aer::build_aer_world_into(arena.world, cfg, roster_);
  } else {
    aer::build_aer_world_into(arena.world, cfg);
  }
  const auto t1 = clock::now();
  const aer::AerReport report =
      aer::run_aer_world_soa(arena.world, arena.run, {}, strategy_);
  outcome_into(report, arena.world, out);
  out.seed = cfg.seed;
  const auto t2 = clock::now();
  arena.timing.setup_seconds += std::chrono::duration<double>(t1 - t0).count();
  arena.timing.run_seconds += std::chrono::duration<double>(t2 - t1).count();
  ++arena.timing.trials;
}

// ----- ServiceStats ----------------------------------------------------------

void ServiceStats::fold(const TrialOutcome& out) {
  ++instances;
  agreements += out.agreement ? 1 : 0;
  engine_incomplete += out.engine_completed ? 0 : 1;
  wrong_decisions += out.wrong_decisions;
  stalled_nodes += out.correct - out.decided;
  correct_nodes += out.correct;
  instance_latency.add(out.completion_time);
  for (double t : out.decision_times) decision_latency.add(t);
  amortized_bits.add(out.amortized_bits);
  total_messages.add(out.total_messages);
  fault_dropped_msgs.add(out.fault_dropped_msgs);
}

namespace {

void hash_words(std::uint64_t& h, std::initializer_list<std::uint64_t> words) {
  h = siphash_words(SipKey{h, 0x53766353ull}, words);  // "SvcS"
}

void hash_double_bits(std::uint64_t& h, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  hash_words(h, {bits});
}

void hash_stream(std::uint64_t& h, const StreamingStats& s) {
  hash_words(h, {s.count()});
  hash_double_bits(h, s.total());
  hash_double_bits(h, s.sum_squares());
  hash_double_bits(h, s.min());
  hash_double_bits(h, s.max());
  // Sparse bucket walk: (index, count) pairs of the occupied buckets.
  const auto& buckets = s.buckets();
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] != 0) hash_words(h, {b, buckets[b]});
  }
}

}  // namespace

std::uint64_t ServiceStats::fingerprint() const {
  std::uint64_t h = 0x6662612073766300ull;  // "fba svc"
  hash_words(h, {instances, agreements, engine_incomplete, wrong_decisions,
                 stalled_nodes, correct_nodes});
  for (const StreamingStats* s :
       {&instance_latency, &decision_latency, &amortized_bits,
        &total_messages, &fault_dropped_msgs}) {
    hash_stream(h, *s);
  }
  return h;
}

Aggregate ServiceStats::to_aggregate() const {
  Aggregate a;
  a.trials = static_cast<std::size_t>(instances);
  a.agreements = static_cast<std::size_t>(agreements);
  a.engine_incomplete = static_cast<std::size_t>(engine_incomplete);
  a.wrong_decisions = wrong_decisions;
  a.stalled_nodes = stalled_nodes;
  a.correct_nodes = correct_nodes;
  a.completion_time = instance_latency.summary();
  a.decision_time = decision_latency.summary();
  a.amortized_bits = amortized_bits.summary();
  a.total_messages = total_messages.summary();
  a.fault_dropped_msgs = fault_dropped_msgs.summary();
  return a;
}

// ----- run_service -----------------------------------------------------------

namespace {

using clock = std::chrono::steady_clock;

double ms_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Serial reference path: the same generate -> execute -> reduce order a
/// pipeline's reducer reconstructs, inline on the calling thread.
void run_serial(const ServicePlan& plan, const ServiceConfig& config,
                ServiceResult& result) {
  TrialArena arena;
  aer::AerConfig cfg;
  TrialOutcome out;
  for (std::uint64_t i = 0; i < config.instances; ++i) {
    if (!config.warm) arena.clear();
    const auto t0 = clock::now();
    plan.run_instance(i, cfg, arena, out);
    const auto t1 = clock::now();
    result.stats.fold(out);
    result.load.instance_wall_ms.add(ms_between(t0, t1));
  }
  result.timing = arena.timing;
}

/// Pipelined path: one generator, `workers` executors (one warm arena
/// each), reduction on the calling thread. The free-slot queue doubles as
/// flow control: at most `pool` instances are in flight, so the reorder
/// window below is provably contiguous — an unreduced instance index always
/// lies in [next, next + pool).
void run_pipelined(const ServicePlan& plan, const ServiceConfig& config,
                   ServiceResult& result) {
  const std::size_t pool = config.resolved_pool();
  const std::uint64_t total = config.instances;

  struct Job {
    std::uint64_t instance = 0;
    std::size_t slot = 0;
  };
  struct Done {
    std::uint64_t instance = 0;
    std::size_t slot = 0;
    double wall_ms = 0;
  };

  svc::BoundedQueue<std::size_t> free_slots(pool);
  svc::BoundedQueue<Job> jobs(pool);
  svc::BoundedQueue<Done> done(pool);
  for (std::size_t s = 0; s < pool; ++s) free_slots.push(s);

  std::vector<TrialOutcome> slots(pool);
  std::vector<std::unique_ptr<TrialArena>> arenas;
  arenas.reserve(config.workers);
  for (std::size_t w = 0; w < config.workers; ++w) {
    arenas.push_back(std::make_unique<TrialArena>());
  }

  svc::StagePool stages;
  stages.set_on_error([&] {
    free_slots.close();
    jobs.close();
    done.close();
  });

  stages.spawn(1, [&](std::size_t) {
    for (std::uint64_t i = 0; i < total; ++i) {
      std::size_t slot = 0;
      if (!free_slots.pop(slot)) return;  // aborted by a failing stage.
      if (!jobs.push(Job{i, slot})) return;
    }
    jobs.close();  // drain semantics deliver everything already queued.
  });

  std::atomic<std::size_t> live_executors{config.workers};
  stages.spawn(config.workers, [&](std::size_t worker) {
    TrialArena& arena = *arenas[worker];
    aer::AerConfig cfg;
    Job job;
    while (jobs.pop(job)) {
      if (!config.warm) arena.clear();
      const auto t0 = clock::now();
      plan.run_instance(job.instance, cfg, arena, slots[job.slot]);
      const auto t1 = clock::now();
      if (!done.push(Done{job.instance, job.slot, ms_between(t0, t1)})) break;
    }
    // Last executor out closes the done queue so the reducer terminates.
    if (live_executors.fetch_sub(1) == 1) done.close();
  });

  // Reduce on this thread, strictly in instance order: out-of-order
  // completions park in a pool-sized reorder window until their turn.
  struct Pending {
    std::size_t slot = 0;
    double wall_ms = 0;
    bool ready = false;
  };
  std::vector<Pending> window(pool);
  std::uint64_t next = 0;
  Done d;
  while (done.pop(d)) {
    window[d.instance % pool] = {d.slot, d.wall_ms, true};
    while (window[next % pool].ready) {
      Pending& cur = window[next % pool];
      result.stats.fold(slots[cur.slot]);
      result.load.instance_wall_ms.add(cur.wall_ms);
      cur.ready = false;
      free_slots.push(cur.slot);  // refused only after an abort; fine.
      ++next;
    }
  }

  stages.join();  // rethrows the first stage failure.
  result.load.jobs = jobs.stats();
  result.load.done = done.stats();
  for (const auto& arena : arenas) result.timing.add(arena->timing);
}

}  // namespace

ServiceResult run_service(const ServiceConfig& config) {
  ServicePlan plan(config);
  ServiceResult result;
  const auto wall0 = clock::now();
  if (config.workers <= 1) {
    run_serial(plan, config, result);
  } else {
    run_pipelined(plan, config, result);
  }
  const auto wall1 = clock::now();
  result.load.wall_seconds =
      std::chrono::duration<double>(wall1 - wall0).count();
  if (result.load.wall_seconds > 0) {
    result.load.instances_per_sec =
        static_cast<double>(result.stats.instances) /
        result.load.wall_seconds;
  }
  return result;
}

}  // namespace fba::exp
