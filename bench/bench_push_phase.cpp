// Lemmas 3-5: the push phase.
//
//   Lemma 3: each correct node sends O(log n) push messages of O(log n)
//            bits — push traffic per node is O(log^2 n).
//   Lemma 4: the summed candidate-list size is O(n), even under coordinated
//            junk diffusion.
//   Lemma 5: w.h.p. every correct node ends the phase with gstring in its
//            candidate list.
//
// The bench sweeps {n} x {none, junk, flood} through exp::Sweep with a
// custom push-only trial (one synchronous round suffices: pushes are sent
// at round 0 and counted during round 1; pull traffic queued for later
// rounds is never delivered, so large n stays cheap), and prints mean
// per-node push bits, Sum|L_x| / n and the number of nodes missing gstring.
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "fba.h"

namespace {

using namespace fba;

/// Runs only the diffusion: with max_rounds = 1, pushes sent at round 0
/// are counted during round 1 and everything later is culled. Runs through
/// the worker's TrialArena: world, engine and actor storage are reused
/// across the sweep's trials.
void run_push_trial(const aer::AerConfig& base_cfg,
                    const exp::GridPoint& point, exp::TrialArena& arena,
                    exp::TrialOutcome& out) {
  aer::AerConfig cfg = base_cfg;
  cfg.max_rounds = 1;
  aer::build_aer_world_into(arena.world, cfg);
  const aer::AerReport report = aer::run_aer_world_soa(
      arena.world, arena.run, {}, exp::attack_factory(point.strategy));

  out = exp::TrialOutcome{};
  out.correct = report.correct_count;
  out.push_bits_per_node = report.push_bits_per_node;
  out.push_msgs_per_node =
      double(report.msgs_of(sim::MessageKind::kPush)) / double(cfg.n);
  out.max_candidate_list = report.max_candidate_list;
  out.missing_gstring = report.nodes_missing_gstring;
  out.candidate_lists_per_node =
      double(report.sum_candidate_lists) / double(report.correct_count);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fba::benchutil;
  const CommonOptions opt = parse_common_flags(
      argc, argv,
      CommonSpec{.binary = "bench_push_phase",
                 .description =
                     "Lemmas 3-5: push-phase traffic, candidate-list growth"
                     " and gstring coverage vs n"});
  const Scale scale = opt.scale;
  const std::size_t trials = opt.trials();
  const std::size_t threads = opt.threads;
  print_banner("Lemmas 3-5: push phase",
               "push bits per node (L3), candidate-list growth (L4),"
               " gstring coverage (L5); means over seeded trials");

  Table table({"n", "d", "adversary", "trials", "push msgs/node",
               "push bits/node", "bits/log^2 n", "|L|/node", "max |L|",
               "missing gstring"});
  Stopwatch watch;

  aer::AerConfig base;
  base.seed = 20130722;

  exp::Grid grid;
  grid.ns = light_sizes(scale);
  grid.strategies = {"none", "junk-light", "flood"};
  exp::Sweep sweep(base, grid, trials);
  sweep.set_threads(threads).set_procs(opt.procs);
  sweep.set_arena_trial(run_push_trial);
  sweep.set_progress(progress_printer("push-phase"));

  exp::Report report =
      make_report("bench_push_phase", "push-phase",
                  "Lemmas 3-5: push-phase traffic and candidate lists",
                  base.seed, trials, scale);
  report.meta().y_metric = "push_bits_per_node";
  report.meta().y_label = "push bits per node";
  const auto results = sweep.run();
  add_split_series(report, base, results, [](const exp::GridPoint& p) {
    return std::string("push/") + p.strategy;
  });

  for (const exp::PointResult& r : results) {
    const exp::Aggregate& a = r.aggregate;
    const double log2n = std::log2(double(r.point.n));
    aer::AerConfig cfg = r.point.apply(base);
    table.add_row(
        {Table::num(static_cast<std::uint64_t>(r.point.n)),
         Table::num(static_cast<std::uint64_t>(cfg.resolved_d())),
         r.point.strategy.c_str(),
         Table::num(static_cast<std::uint64_t>(a.trials)),
         Table::num(a.push_msgs_per_node, 1),
         Table::num(a.push_bits_per_node, 0),
         Table::num(a.push_bits_per_node / (log2n * log2n), 2),
         Table::num(a.candidate_lists_per_node, 2),
         Table::num(static_cast<std::uint64_t>(a.max_candidate_list)),
         Table::num(a.missing_gstring)});
  }

  table.print(std::cout);
  std::printf(
      "\npaper: push msgs/node = d = O(log n); bits/node = O(log^2 n) (flat"
      " in the normalized column); Sum|L_x| = O(n) (|L|/node ~ constant);"
      " missing = 0 w.h.p.\nNote the flood adversary buys nothing: its"
      " pushes fail the I(s,x) membership filter.\n");
  std::printf("[push-phase done in %.1fs on %zu thread(s)]\n", watch.seconds(),
              threads);
  write_json_if_requested(report, opt.json);
  return 0;
}
