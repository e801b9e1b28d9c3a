// AER configuration and the shared world state (public setup) every node
// sees: the three samplers, the string table, and the wire format.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/fault.h"
#include "net/message.h"
#include "net/recovery.h"
#include "sampler/sampler.h"
#include "sampler/tables.h"
#include "support/intern.h"
#include "support/types.h"

namespace fba::aer {

/// Which engine / adversary-timing combination to run under (Section 2.1).
enum class Model {
  kSyncNonRushing,  ///< Lemma 8/9 regime: O(1) expected decision time.
  kSyncRushing,     ///< synchronous, adversary sees same-round traffic.
  kAsync,           ///< Lemma 6/10 regime: O(log n / log log n) time.
};

const char* model_name(Model model);

struct AerConfig {
  std::size_t n = 0;
  Model model = Model::kSyncRushing;
  std::uint64_t seed = 1;

  /// Corrupt fraction t/n. The paper tolerates t < (1/3 - eps) n
  /// asymptotically; at simulation scale d = Theta(log n) is small, so the
  /// default operating point keeps a comfortable quorum-majority margin.
  /// Resilience stress benches sweep this toward 1/3.
  double corrupt_fraction = 0.08;
  /// Use an explicit t instead of the fraction when set (>= 0).
  long explicit_t = -1;

  /// Fraction of *correct* nodes that initially know gstring. The paper's
  /// precondition is that more than half of all nodes are correct and
  /// knowledgeable (equivalently >= 3/4 of correct nodes when t < n/3).
  double knowledgeable_fraction = 0.95;

  /// Quorum / poll-list size d = max(8, c_d * log2 n), or d_override.
  double c_d = 1.5;
  std::size_t d_override = 0;

  /// gstring is gstring_c * log2(n) bits, 2/3 of them uniformly random.
  std::size_t gstring_c = 4;
  double gstring_random_fraction = 2.0 / 3.0;

  /// Algorithm 3 answer budget; 0 means ceil(log2 n)^2 as in the paper.
  std::size_t answer_budget = 0;

  /// Ablation: when false, over-budget requests are dropped instead of
  /// deferred until decision ("Wait for has_decided").
  bool defer_answers = true;

  Round max_rounds = 300;
  double max_time = 300.0;

  /// Runtime corruption budget for adaptive-* strategies (adversary/
  /// adaptive.h): how many additional nodes the adversary may flip *during*
  /// the run, on top of the t pre-execution corruptions. 0 (the default)
  /// keeps the paper's non-adaptive model; static strategies ignore it.
  std::size_t adaptive_budget = 0;
  /// Earliest time (sync: round; async: sim time) the adaptive adversary
  /// may start spending the budget — lets sweeps separate "corrupt early"
  /// from "corrupt after observing traffic".
  double adaptive_from = 1.0;

  /// Fault conditions applied at the engines' delivery boundary (loss /
  /// partitions / churn, net/fault.h). Empty (the default) keeps the
  /// paper's reliable-channel model. Named presets live in exp/scenario.h
  /// (exp::fault_plan_factory) so benches, fba_sim and Grid sweeps share
  /// one vocabulary.
  sim::FaultPlan fault_plan;

  /// Reliable-channel recovery sublayer (ack/retransmit with adaptive
  /// timeout, net/recovery.h). Empty (the default) disables it; named
  /// presets live in exp/scenario.h (exp::recovery_plan_factory). Layered
  /// under send_from, downstream of fault_plan, so retransmissions are
  /// re-exposed to loss/partition/churn.
  sim::RecoveryPlan recovery_plan;

  std::size_t resolved_t() const;
  std::size_t resolved_d() const;
  std::size_t resolved_answer_budget() const;
  std::size_t resolved_gstring_bits() const;
};

/// Public setup shared by all nodes, plus the run-wide string table. Also
/// owns the wire format (node ids cost log2 n bits, labels come from
/// R with |R| = n^2, strings carry their true length) and the dense sampler
/// tables (sampler/tables.h) every protocol hot path reads quorums through.
class AerShared {
 public:
  AerShared(const AerConfig& config, const sampler::SamplerParams& sp)
      : config(config), samplers(sp) {
    tables.reset(samplers, config.n);
    wire_.node_id_bits = fba::node_id_bits(config.n);
    wire_.label_bits = samplers.params.label_bits;
    wire_.table = &table;
  }

  // wire_ points at this object's string table; copying/moving would leave
  // it dangling.
  AerShared(const AerShared&) = delete;
  AerShared& operator=(const AerShared&) = delete;

  /// Rebuilds this setup in place for a fresh trial (trial-arena reuse):
  /// re-keys the samplers, empties the string table, and re-binds the dense
  /// tables — all storage (table slots, quorum slabs, poll rows) is kept.
  void reset(const AerConfig& new_config, const sampler::SamplerParams& sp) {
    config = new_config;
    samplers.reset(sp);
    table.reset();
    tables.reset(samplers, new_config.n);
    gstring = kNoString;
    wire_.node_id_bits = fba::node_id_bits(new_config.n);
    wire_.label_bits = samplers.params.label_bits;
    wire_.table = &table;
  }

  const sim::Wire& wire() const { return wire_; }

  /// Sampler key for an interned string (functions of string content).
  sampler::StringKey key_of(StringId id) const { return table.digest(id); }

  // ----- dense sampler front-ends (hot path) -------------------------------
  // Quorums are functions of string *content*; the dense tables additionally
  // key on the run-local StringId, so a lookup is one open-addressed probe on
  // the packed (StringId, node) pair. Views stay valid for the rest of the
  // trial.

  /// I(s, x): who may push/route string s to x.
  sampler::QuorumView push_quorum(StringId s, NodeId x) const {
    return tables.push.row(s, key_of(s), x);
  }
  /// H(s, x): the Pull Quorum of x for s.
  sampler::QuorumView pull_quorum(StringId s, NodeId x) const {
    return tables.pull.row(s, key_of(s), x);
  }
  /// J(x, r): the poll list of x under label r.
  sampler::QuorumView poll_list(NodeId x, PollLabel r) const {
    return tables.poll.row(x, r);
  }
  /// { x : y in I(s, x) }, written into `out` (capacity reuse).
  void push_targets(StringId s, NodeId y, std::vector<NodeId>& out) const {
    tables.push.targets(s, key_of(s), y, out);
  }

  AerConfig config;
  sampler::SamplerSuite samplers;
  /// Dense memoized I / H / J (lazily filled; a trial is single-threaded,
  /// so the mutation is invisible to callers — see sampler/tables.h).
  mutable sampler::SharedTables tables;
  StringTable table;
  StringId gstring = kNoString;

 private:
  sim::Wire wire_;
};

}  // namespace fba::aer
