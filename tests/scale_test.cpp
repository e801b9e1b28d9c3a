// The AER runner's memory account (aer/soa.h, support/mem.h) must be
// deterministic: a warm arena reports the same bytes as a cold one. The
// actor state's per-node introspection must agree with the world's
// decision log.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fba.h"

namespace fba {
namespace {

constexpr std::uint64_t kSeed = 20130722;

aer::AerConfig base_config() {
  aer::AerConfig base;
  base.n = 64;
  base.seed = kSeed;
  base.max_rounds = 80;
  return base;
}

/// Mirrors exp::Sweep's per-trial seed derivation.
std::vector<exp::TrialOutcome> arena_outcomes(const exp::GridPoint& point,
                                              std::size_t trials,
                                              exp::TrialArena& arena) {
  std::vector<exp::TrialOutcome> outcomes(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    aer::AerConfig cfg = point.apply(base_config());
    cfg.seed = exp::trial_seed(kSeed, point.index, t);
    exp::run_aer_trial(cfg, point, arena, outcomes[t]);
    outcomes[t].seed = cfg.seed;
  }
  return outcomes;
}

exp::GridPoint grid_point(aer::Model model, const std::string& attack,
                          const std::string& fault, std::size_t index) {
  exp::GridPoint point;
  point.index = index;
  point.n = base_config().n;
  point.model = model;
  point.strategy = attack;
  point.fault = fault;
  return point;
}

// MemBudget's determinism contract: charges derive from logical sizes and
// counts, never allocator capacity — so a warm arena (retained vectors,
// grown tables) reports byte-identical memory to a cold one, and the
// figure's bytes/node is reproducible like every other metric.
TEST(ScaleMemoryTest, WarmArenaReportsSameBytesAsCold) {
  const exp::GridPoint point =
      grid_point(aer::Model::kSyncRushing, "none", "", 0);
  exp::TrialArena warm;
  const std::vector<exp::TrialOutcome> first = arena_outcomes(point, 3, warm);
  const std::vector<exp::TrialOutcome> rerun = arena_outcomes(point, 3, warm);
  exp::TrialArena cold_arena;
  const std::vector<exp::TrialOutcome> cold =
      arena_outcomes(point, 3, cold_arena);
  for (std::size_t t = 0; t < first.size(); ++t) {
    EXPECT_GT(first[t].mem_bytes_per_node, 0.0);
    EXPECT_EQ(first[t].mem_bytes_per_node, rerun[t].mem_bytes_per_node) << t;
    EXPECT_EQ(first[t].mem_bytes_per_node, cold[t].mem_bytes_per_node) << t;
  }
  // And across the async engine too (calendar queue, normalized time).
  const exp::GridPoint async_point =
      grid_point(aer::Model::kAsync, "none", "", 1);
  exp::TrialArena async_warm;
  const std::vector<exp::TrialOutcome> async_first =
      arena_outcomes(async_point, 2, async_warm);
  const std::vector<exp::TrialOutcome> async_rerun =
      arena_outcomes(async_point, 2, async_warm);
  for (std::size_t t = 0; t < async_first.size(); ++t) {
    EXPECT_GT(async_first[t].mem_bytes_per_node, 0.0);
    EXPECT_EQ(async_first[t].mem_bytes_per_node,
              async_rerun[t].mem_bytes_per_node)
        << t;
  }
}

// Spot check the per-node introspection against the world's decision log.
TEST(ScaleIntrospectionTest, DecisionsMatchWorldLog) {
  aer::AerConfig cfg = base_config();
  cfg.model = aer::Model::kSyncRushing;
  aer::AerWorld world = aer::build_aer_world(cfg);
  aer::SoaArena arena;
  const aer::AerReport report = aer::run_aer_world_soa(world, arena);
  EXPECT_GT(report.decided_count, 0u);
  const aer::SoaAerState& state = *arena.state;
  for (const NodeId id : world.correct) {
    EXPECT_EQ(state.has_decided(id), world.decisions.has_decided(id)) << id;
    if (state.has_decided(id)) {
      EXPECT_EQ(state.decided_value(id), world.decisions.value(id)) << id;
    }
  }
}

}  // namespace
}  // namespace fba
