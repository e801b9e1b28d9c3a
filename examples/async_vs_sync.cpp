// Timing-model comparison: the same AER code under the synchronous
// (rushing / non-rushing) and asynchronous engines, with and without an
// adversarial delay schedule — the paper's distinctive claim that AER
// "remains correct and efficient under asynchrony".
//
//   $ ./async_vs_sync [n]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "fba.h"

int main(int argc, char** argv) {
  using namespace fba;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 256;

  Table table({"engine", "delays", "mean decision", "completion", "decided",
               "agree"});

  struct Case {
    const char* label;
    const char* delays;
    aer::Model model;
    bool adversarial_delays;
  };
  const Case cases[] = {
      {"sync non-rushing", "lockstep", aer::Model::kSyncNonRushing, false},
      {"sync rushing", "lockstep", aer::Model::kSyncRushing, false},
      {"async", "uniform(0,1]", aer::Model::kAsync, false},
      {"async", "targeted max-delay", aer::Model::kAsync, true},
  };

  for (const Case& c : cases) {
    aer::AerConfig cfg;
    cfg.n = n;
    cfg.seed = 7;
    cfg.model = c.model;
    aer::StrategyFactory factory;
    if (c.adversarial_delays) {
      factory = [](const aer::AerWorldView& view) {
        // Decisive messages (answers, forwards) dragged to the reliability
        // bound; adversary traffic races ahead.
        return std::make_unique<adv::TargetedDelayStrategy>(view);
      };
    }
    const aer::AerReport r = run_aer(cfg, factory);
    table.add_row(
        {c.label, c.delays, Table::num(r.mean_decision_time, 2),
         Table::num(r.completion_time, 2),
         Table::num(static_cast<std::uint64_t>(r.decided_count)) + "/" +
             Table::num(static_cast<std::uint64_t>(r.correct_count)),
         r.agreement ? "yes" : "NO"});
  }

  std::printf("the same AER actor under every timing model"
              " (n=%zu):\n\n", n);
  table.print(std::cout);
  std::printf("\nsync times are rounds; async times are normalized so the"
              " maximum message delay is 1.\n");
  return 0;
}
