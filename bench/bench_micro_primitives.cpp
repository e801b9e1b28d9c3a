// Micro-benchmarks (google-benchmark) for the primitives everything else is
// built from: SipHash, Feistel permutations, quorum/poll-list evaluation,
// the memoizing caches, and raw engine message throughput. Not a paper
// artifact; used to keep the simulator fast enough for the protocol sweeps
// and to quantify the invertible-sampler design decision (DESIGN.md §6).
//
// The send->deliver benches also count heap allocations through an
// instrumented global allocator: the flat-message transport must perform
// ZERO steady-state allocations per send (BM_SteadyStateSendAllocations
// fails the run otherwise). Track results over time with
//   ./bench_micro_primitives --benchmark_out=BENCH_micro_primitives.json
//       --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "fba.h"

// ----- instrumented allocator ------------------------------------------------
// Counts every global operator new while g_count_allocs is set. Replacing
// the global allocator is per-binary, so this instruments the whole process
// (engine, protocol state, benchmark framework) — the benches scope the flag
// tightly around the measured region.

namespace {
std::atomic<std::size_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

inline void note_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

// GCC pairs the replaced operator new (malloc-backed) with the free() in the
// replaced operator delete at inlined call sites and flags the pair as a
// new/free mismatch; the pairing is exactly the contract here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  note_alloc();
  const auto align = static_cast<std::size_t>(al);
  const std::size_t rounded = ((size ? size : 1) + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

namespace {

using namespace fba;

void BM_SipHashWords(benchmark::State& state) {
  const SipKey key{1, 2};
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(siphash_words(key, {x++, 42, 7}));
  }
}
BENCHMARK(BM_SipHashWords);

void BM_FeistelForward(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  FeistelPermutation perm(n, SipKey{3, 4});
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm.forward(x));
    x = (x + 1) % n;
  }
}
BENCHMARK(BM_FeistelForward)->Arg(1024)->Arg(65536);

void BM_FeistelInverse(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  FeistelPermutation perm(n, SipKey{3, 4});
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm.inverse(x));
    x = (x + 1) % n;
  }
}
BENCHMARK(BM_FeistelInverse)->Arg(1024)->Arg(65536);

void BM_QuorumEval(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sampler::QuorumSampler sampler(sampler::SamplerParams::defaults(n, 1), 0x11);
  NodeId x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.quorum(0xabc, x));
    x = (x + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() * sampler.d());
}
BENCHMARK(BM_QuorumEval)->Arg(1024)->Arg(16384);

void BM_QuorumTargets(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sampler::QuorumSampler sampler(sampler::SamplerParams::defaults(n, 1), 0x11);
  NodeId y = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.targets(0xabc, y));
    y = (y + 1) % n;
  }
}
BENCHMARK(BM_QuorumTargets)->Arg(1024)->Arg(16384);

/// Warm-row lookup through the dense tables: the per-delivery hot path
/// (one dense index, no hashing — what replaced the unordered_map cache).
void BM_QuorumLookupWarm(benchmark::State& state) {
  sampler::SamplerSuite suite(sampler::SamplerParams::defaults(4096, 1));
  sampler::SharedTables tables;
  tables.reset(suite, 4096);
  tables.push.row(0, 7, 3);  // build once
  for (auto _ : state) {
    const sampler::QuorumView view = tables.push.row(0, 7, 3);
    benchmark::DoNotOptimize(view.contains(1));
  }
}
BENCHMARK(BM_QuorumLookupWarm);

/// Cold-row build: table reset (re-key) plus first touch of d rows — the
/// per-trial setup cost the precomputed slot permutations amortize.
void BM_QuorumLookupCold(benchmark::State& state) {
  sampler::SamplerSuite suite(sampler::SamplerParams::defaults(4096, 1));
  sampler::SharedTables tables;
  NodeId x = 0;
  for (auto _ : state) {
    tables.reset(suite, 4096);
    for (std::size_t k = 0; k < suite.params.d; ++k) {
      benchmark::DoNotOptimize(tables.push.row(0, 7, x));
      x = (x + 1) % 4096;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(suite.params.d));
}
BENCHMARK(BM_QuorumLookupCold);

/// Warm poll-row lookup: one open-addressed probe on the packed (x, r) key.
void BM_PollLookupWarm(benchmark::State& state) {
  sampler::SamplerSuite suite(sampler::SamplerParams::defaults(4096, 1));
  sampler::SharedTables tables;
  tables.reset(suite, 4096);
  tables.poll.row(3, 777);
  for (auto _ : state) {
    const sampler::QuorumView view = tables.poll.row(3, 777);
    benchmark::DoNotOptimize(view.contains(1));
  }
}
BENCHMARK(BM_PollLookupWarm);

void BM_PollListEval(benchmark::State& state) {
  sampler::PollSampler sampler(sampler::SamplerParams::defaults(4096, 1),
                               0x44);
  PollLabel r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.poll_list(5, r++));
  }
}
BENCHMARK(BM_PollListEval);

// ----- engine send->deliver path ---------------------------------------------

sim::Wire bench_wire() {
  sim::Wire w;
  w.node_id_bits = 12;
  w.label_bits = 24;
  w.fixed_string_bits = 48;
  return w;
}

sim::Message bench_ping() {
  sim::Message m;
  m.kind = sim::MessageKind::kPing;
  return m;
}

/// Replies to every delivery: an endless ping-pong pair.
struct Bouncer final : sim::Actor {
  void on_start(sim::Context& ctx) override {
    ctx.send(1 - ctx.self(), bench_ping());
  }
  void on_message(sim::Context& ctx, const sim::Envelope& env) override {
    ctx.send(env.src, env.msg);
  }
};

/// Raw engine throughput: one actor ping-pong pair, measured per delivery.
/// This is the flat-message send->deliver cost the transport refactor
/// targets (>= 2x the shared_ptr payload baseline).
void BM_SyncEngineDelivery(benchmark::State& state) {
  const sim::Wire wire = bench_wire();
  for (auto _ : state) {
    state.PauseTiming();
    sim::SyncConfig cfg;
    cfg.n = 2;
    cfg.max_rounds = 1000;
    sim::SyncEngine engine(cfg);
    engine.set_wire(&wire);
    engine.set_actor(0, std::make_unique<Bouncer>());
    engine.set_actor(1, std::make_unique<Bouncer>());
    state.ResumeTiming();
    engine.run([] { return false; });
    benchmark::DoNotOptimize(engine.metrics().total_messages());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_SyncEngineDelivery);

/// Same shape under the asynchronous engine: EventQueue push/pop plus the
/// per-message delay draw dominate. One engine is reset per iteration, as
/// the trial arenas do, so the event slab is warm and only delivery is
/// timed.
void BM_AsyncEngineDelivery(benchmark::State& state) {
  const sim::Wire wire = bench_wire();
  sim::AsyncConfig cfg;
  cfg.n = 2;
  cfg.max_time = 500.0;
  sim::AsyncEngine engine(cfg);
  std::uint64_t deliveries = 0;
  for (auto _ : state) {
    state.PauseTiming();
    engine.reset(cfg);
    engine.set_wire(&wire);
    engine.set_actor(0, std::make_unique<Bouncer>());
    engine.set_actor(1, std::make_unique<Bouncer>());
    state.ResumeTiming();
    const sim::AsyncResult result = engine.run([] { return false; });
    deliveries += result.deliveries;
    benchmark::DoNotOptimize(result.time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(deliveries));
}
BENCHMARK(BM_AsyncEngineDelivery);

/// The zero-allocation contract of the transport layer: once the event slab
/// is warm (16 rounds), a full send->queue->deliver cycle must not touch the
/// heap. Counted via the instrumented global allocator; a nonzero count
/// fails the benchmark (and the CI smoke step with it).
void BM_SteadyStateSendAllocations(benchmark::State& state) {
  const sim::Wire wire = bench_wire();
  std::size_t allocs = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    sim::SyncConfig cfg;
    cfg.n = 2;
    cfg.max_rounds = 1000;
    sim::SyncEngine engine(cfg);
    engine.set_wire(&wire);
    engine.set_actor(0, std::make_unique<Bouncer>());
    engine.set_actor(1, std::make_unique<Bouncer>());
    engine.run([&engine] {
      if (engine.current_round() == 16) {  // slab and scratch are warm now
        g_alloc_count.store(0, std::memory_order_relaxed);
        g_count_allocs.store(true, std::memory_order_relaxed);
      }
      return false;
    });
    g_count_allocs.store(false, std::memory_order_relaxed);
    allocs += g_alloc_count.load(std::memory_order_relaxed);
    messages += engine.metrics().total_messages();
  }
  state.counters["steady_allocs"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
  if (allocs != 0) {
    state.SkipWithError("steady-state send path performed heap allocations");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
}
BENCHMARK(BM_SteadyStateSendAllocations);

/// The same contract with the recovery sublayer engaged: tracked sends,
/// ack generation, retransmit timers and resends all run from the pooled
/// slot table and the event slab. Unlike the plain bench's constant
/// 2-messages-per-round trace, lossy ARQ traffic is bursty — the event
/// queue's lane/ring capacity high-water is only reached somewhere inside
/// the run — so this bench follows BM_WarmTrialAllocations' shape instead:
/// one engine, reset() between runs (capacity persists, as in the trial
/// arena), one unmeasured warm-up run over the identical deterministic
/// trace, then every measured run must perform zero heap allocations. The
/// loss plan forces the retransmit path to actually fire (not just the
/// tracking bookkeeping).
void BM_SteadyStateSendAllocationsRecovery(benchmark::State& state) {
  const sim::Wire wire = bench_wire();
  const sim::FaultPlan fault = exp::fault_plan_factory("lossy-5pct");
  const sim::RecoveryPlan recovery = exp::recovery_plan_factory("arq-fast");
  sim::SyncConfig cfg;
  cfg.n = 2;
  cfg.max_rounds = 1000;
  sim::SyncEngine engine(cfg);
  const auto run_once = [&] {
    engine.reset(cfg);
    engine.set_wire(&wire);
    engine.set_fault_plan(&fault);
    engine.set_recovery_plan(&recovery);
    engine.set_actor(0, std::make_unique<Bouncer>());
    engine.set_actor(1, std::make_unique<Bouncer>());
    engine.run([] { return false; });
  };
  run_once();  // warm-up: grow queue lanes/ring and the slot pool
  std::size_t allocs = 0;
  std::uint64_t messages = 0;
  std::uint64_t retransmits = 0;
  for (auto _ : state) {
    engine.reset(cfg);
    engine.set_wire(&wire);
    engine.set_fault_plan(&fault);
    engine.set_recovery_plan(&recovery);
    engine.set_actor(0, std::make_unique<Bouncer>());
    engine.set_actor(1, std::make_unique<Bouncer>());
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    engine.run([] { return false; });
    g_count_allocs.store(false, std::memory_order_relaxed);
    allocs += g_alloc_count.load(std::memory_order_relaxed);
    messages += engine.metrics().total_messages();
    retransmits += engine.metrics().recovery_retransmit_messages();
  }
  state.counters["steady_allocs_recovery"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
  state.counters["retransmits"] =
      static_cast<double>(retransmits) / static_cast<double>(state.iterations());
  if (allocs != 0) {
    state.SkipWithError(
        "recovery-enabled steady-state send path performed heap allocations");
  }
  if (retransmits == 0) {
    state.SkipWithError(
        "recovery-enabled bench saw no retransmits — the gate measured"
        " nothing");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
}
BENCHMARK(BM_SteadyStateSendAllocationsRecovery);

/// Full world construction through the trial arena: what exp::Sweep pays
/// per trial before the engine runs (samplers re-keyed, string table and
/// vectors reused in place).
void BM_TrialSetup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  exp::TrialArena arena;
  aer::AerConfig cfg;
  cfg.n = n;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = ++seed;  // fresh setup randomness every trial, as in a sweep
    aer::build_aer_world_into(arena.world, cfg);
    benchmark::DoNotOptimize(arena.world.correct.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrialSetup)->Arg(256)->Arg(2048);

/// The trial-arena zero-allocation contract: once the arena is warm, a full
/// AER trial (world rebuild + engine run + outcome harvest) must not touch
/// the heap. Counted via the instrumented global allocator; any allocation
/// fails the benchmark (and the CI smoke step with it). Mirrors
/// BM_SteadyStateSendAllocations, one level up. `model` picks the engine:
/// the sync calendar buckets, or the async calendar ring's slab, link array
/// and key scratch.
void warm_trial_allocations(benchmark::State& state, aer::Model model,
                            const char* counter) {
  exp::TrialArena arena;
  exp::GridPoint point;
  point.n = 64;
  point.model = model;
  point.strategy = "none";
  aer::AerConfig cfg;
  cfg.n = 64;
  cfg.model = model;
  exp::TrialOutcome out;
  // Warm-up: grow every pool/slab/table to these trials' working-set size.
  // The measured loop re-runs the same seeds: the zero-allocation contract
  // is that a trial whose working set the arena has already accommodated
  // performs no heap allocation (a *new* seed may legitimately push a
  // capacity high-water mark once, then joins the warm set).
  constexpr std::uint64_t kSeeds = 4;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    cfg.seed = seed;
    exp::run_aer_trial(cfg, point, arena, out);
  }
  std::size_t allocs = 0;
  std::uint64_t trials = 0;
  for (auto _ : state) {
    cfg.seed = 1 + trials % kSeeds;
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    exp::run_aer_trial(cfg, point, arena, out);
    g_count_allocs.store(false, std::memory_order_relaxed);
    allocs += g_alloc_count.load(std::memory_order_relaxed);
    ++trials;
  }
  state.counters[counter] =
      static_cast<double>(allocs) / static_cast<double>(trials);
  if (allocs != 0) {
    state.SkipWithError("warm-arena trial performed heap allocations");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(trials));
}

void BM_WarmTrialAllocations(benchmark::State& state) {
  warm_trial_allocations(state, aer::Model::kSyncRushing, "warm_trial_allocs");
}
BENCHMARK(BM_WarmTrialAllocations);

void BM_WarmAsyncTrialAllocations(benchmark::State& state) {
  warm_trial_allocations(state, aer::Model::kAsync, "warm_async_trial_allocs");
}
BENCHMARK(BM_WarmAsyncTrialAllocations);

/// The service-mode zero-allocation contract, one level above
/// BM_WarmTrialAllocations: once a pipeline worker's arena is warm, a full
/// service *instance* — ServicePlan::configure re-key, world rebuild, engine
/// run, outcome harvest — must not touch the heap. This is the
/// cross-instance amortization exp::Service is built on; any allocation
/// fails the benchmark (and the CI perf-smoke gate with it).
void BM_WarmInstanceAllocations(benchmark::State& state) {
  exp::ServiceConfig config;
  config.base.n = 64;
  config.base.model = aer::Model::kSyncRushing;
  const exp::ServicePlan plan(config);
  exp::TrialArena arena;
  aer::AerConfig cfg;
  exp::TrialOutcome out;
  // Warm-up over a small instance window, then re-run the same instances
  // measured — identical contract to BM_WarmTrialAllocations: a working set
  // the arena has already accommodated allocates nothing.
  constexpr std::uint64_t kInstances = 4;
  for (std::uint64_t i = 0; i < kInstances; ++i) {
    plan.run_instance(i, cfg, arena, out);
  }
  std::size_t allocs = 0;
  std::uint64_t instances = 0;
  for (auto _ : state) {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    plan.run_instance(instances % kInstances, cfg, arena, out);
    g_count_allocs.store(false, std::memory_order_relaxed);
    allocs += g_alloc_count.load(std::memory_order_relaxed);
    ++instances;
  }
  state.counters["warm_instance_allocs"] =
      static_cast<double>(allocs) / static_cast<double>(instances);
  if (allocs != 0) {
    state.SkipWithError("warm service instance performed heap allocations");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instances));
}
BENCHMARK(BM_WarmInstanceAllocations);

void BM_BitStringDigest(benchmark::State& state) {
  Rng rng(1);
  const BitString s = BitString::random(64, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.digest());
  }
}
BENCHMARK(BM_BitStringDigest);

/// Per-trial seed derivation, paid once per experiment trial.
void BM_ExpTrialSeed(benchmark::State& state) {
  std::uint64_t point = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exp::trial_seed(20130722, point++, 7));
  }
}
BENCHMARK(BM_ExpTrialSeed);

/// Thread-pool fan-out overhead of the experiment runner: tasks are no-ops,
/// so this measures pure dispatch cost per trial slot.
void BM_ExpRunIndexed(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> sink(tasks, 0);
  for (auto _ : state) {
    exp::run_indexed(tasks, exp::default_threads(),
                     [&sink](std::size_t i) { sink[i] = i; });
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_ExpRunIndexed)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
