// TrialArena: one worker thread's reusable trial machinery.
//
// A sweep runs thousands of trials back to back; without an arena every
// trial reconstructs its whole world on the heap — string table, sampler
// tables, engine and the actor state's tables and maps. The arena keeps all
// of it alive between trials: build_aer_world_into re-keys the world in
// place, the engines reset instead of reconstructing, and the actor state
// (aer/soa.h) keeps its capacity and its retained maps' pool. After a
// warm-up trial, running a trial performs no heap allocation (under the
// default corruption picker, the "none" attack and an allocation-free fault
// plan) — the contract bench_micro_primitives::BM_WarmTrialAllocations
// enforces.
//
// Determinism: a trial's result depends only on its config (seed included),
// never on what the arena ran before — reset paths replicate construction
// semantics exactly. exp_test compares arena-path and fresh-path
// fingerprints; golden_test pins the values themselves.
#pragma once

#include <cstdint>

#include "aer/soa.h"
#include "exp/scenario.h"

namespace fba::exp {

/// Wall-clock split a sweep's trials accumulate (world/sampler setup vs
/// engine execution); surfaced by fba_sim / fba_repro --timing.
struct TrialTiming {
  double setup_seconds = 0;  ///< build_aer_world_into (samplers, gstring...)
  double run_seconds = 0;    ///< engine execution + harvest
  std::uint64_t trials = 0;

  void add(const TrialTiming& other) {
    setup_seconds += other.setup_seconds;
    run_seconds += other.run_seconds;
    trials += other.trials;
  }
};

/// Everything one sweep worker reuses across the trials it runs. Workers
/// never share arenas, so no synchronization is needed inside.
class TrialArena {
 public:
  aer::AerWorld world;
  aer::SoaArena run;
  TrialTiming timing;

  /// Discards every pool, slab and table: the next trial rebuilds from
  /// nothing, exactly like a first-ever trial. This is the cold baseline of
  /// the service-mode A/B (ServiceConfig::warm = false / bench_service's
  /// cold lap) — the warm path's speedup is measured against it. Timing is
  /// kept: it accounts the run, not the storage.
  void clear() {
    world = aer::AerWorld();
    run.clear();
  }
};

}  // namespace fba::exp

// ----- names called by perfbench/ --------------------------------------------
// The benchmark's sources predate the single actor path and are changed only
// together with the benchmark itself, so the names they call stay here as
// aliases of, or forwarders onto, the one implementation above.

namespace fba::aer {

using RunArena = SoaArena;  // called by perfbench/

// called by perfbench/
inline AerReport run_aer_world_arena(AerWorld& world, SoaArena& arena,
                                     const StrategyFactory& make_strategy) {
  return run_aer_world_soa(world, arena, {}, make_strategy);
}

}  // namespace fba::aer

namespace fba::exp {

using ScaleArena = TrialArena;  // called by perfbench/

// called by perfbench/
inline void run_aer_scale_trial(const aer::AerConfig& config,
                                const GridPoint& point, TrialArena& arena,
                                TrialOutcome& out) {
  run_aer_trial(config, point, arena, out);
}

}  // namespace fba::exp
