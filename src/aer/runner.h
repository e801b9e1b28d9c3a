// Generic protocol runner: executes any actor-based protocol on a prebuilt
// AerWorld under the model selected in the world's config, wiring up the
// corrupt set, adversary strategy, decision bookkeeping and the
// all-correct-nodes-decided stop condition. Fills the outcome and traffic
// sections of the report; protocol-specific sections are the caller's.
#pragma once

#include <memory>
#include <optional>

#include "aer/protocol.h"
#include "net/async_engine.h"
#include "net/sync_engine.h"

namespace fba::aer {

/// One engine of each flavor. run_world resets the one a run needs instead
/// of reconstructing it (reset() replicates construction semantics), so
/// slots reused across trials keep their storage.
struct EngineSlots {
  std::optional<sim::SyncEngine> sync;
  std::optional<sim::AsyncEngine> async;
};

/// Runs one execution on `world` through `engines`. `install(engine,
/// strategy)` registers an actor for every correct node (the corrupt set is
/// already installed) and may configure the engine further; `harvest(report,
/// engine)` runs once the common report sections are filled, while the
/// actors are still alive.
template <typename Install, typename Harvest>
AerReport run_world(AerWorld& world, EngineSlots& engines,
                    const StrategyFactory& make_strategy, Install&& install,
                    Harvest&& harvest) {
  const AerConfig& config = world.shared->config;
  world.decisions.reset(config.n);

  AerReport report;
  report.n = config.n;
  report.t = world.view.corrupt.size();
  report.d = config.resolved_d();
  report.model = config.model;

  std::unique_ptr<adv::Strategy> strategy;
  if (make_strategy) strategy = make_strategy(world.view);

  std::size_t decided = 0;
  std::size_t target = world.correct.size();
  auto on_decide = [&world, &decided](NodeId node, StringId value,
                                      double time) {
    if (!world.decisions.has_decided(node)) ++decided;
    world.decisions.record(node, value, time);
  };
  auto done = [&] { return decided >= target; };
  auto on_corrupt = [&world, &target](NodeId node, double /*time*/) {
    if (note_runtime_corruption(world, node)) --target;
  };

  auto run = [&](auto& engine) {
    engine.set_wire(&world.shared->wire());
    engine.set_fault_plan(&config.fault_plan);
    engine.set_recovery_plan(&config.recovery_plan);
    engine.set_corrupt(world.view.corrupt);
    install(engine, strategy.get());
    engine.set_strategy(strategy.get());
    engine.set_decision_callback(on_decide);
    engine.set_corruption_budget(config.adaptive_budget);
    engine.set_corruption_callback(on_corrupt);
    const auto result = engine.run(done);
    report.runtime_corruptions = engine.corruptions_spent();
    report.first_corruption_time = engine.first_corruption_time();
    report.last_corruption_time = engine.last_corruption_time();
    return result;
  };

  if (config.model == Model::kAsync) {
    sim::AsyncConfig ec;
    ec.n = config.n;
    ec.seed = config.seed;
    ec.max_time = config.max_time;
    if (engines.async.has_value()) engines.async->reset(ec);
    else engines.async.emplace(ec);
    const sim::AsyncResult result = run(*engines.async);
    report.engine_time = result.time;
    report.engine_completed = result.completed;
    fill_outcome_and_traffic(report, world, engines.async->metrics());
    harvest(report, *engines.async);
  } else {
    sim::SyncConfig ec;
    ec.n = config.n;
    ec.seed = config.seed;
    ec.rushing_adversary = config.model == Model::kSyncRushing;
    ec.max_rounds = config.max_rounds;
    if (engines.sync.has_value()) engines.sync->reset(ec);
    else engines.sync.emplace(ec);
    const sim::SyncResult result = run(*engines.sync);
    report.engine_time = static_cast<double>(result.rounds);
    report.engine_completed = result.completed;
    fill_outcome_and_traffic(report, world, engines.sync->metrics());
    harvest(report, *engines.sync);
  }
  return report;
}

/// run_world on fresh engines, with one actor per correct node from
/// `make_actor`: NodeId -> std::unique_ptr<sim::Actor>. The baseline AE->E
/// protocols run through it.
template <typename ActorFactory>
AerReport run_world_protocol(AerWorld& world, ActorFactory&& make_actor,
                             const StrategyFactory& make_strategy = {}) {
  EngineSlots engines;
  return run_world(
      world, engines, make_strategy,
      [&](auto& engine, const adv::Strategy* /*strategy*/) {
        for (NodeId id = 0; id < world.shared->config.n; ++id) {
          if (!engine.is_corrupt(id)) engine.set_actor(id, make_actor(id));
        }
      },
      [](AerReport& /*report*/, const auto& /*engine*/) {});
}

}  // namespace fba::aer
