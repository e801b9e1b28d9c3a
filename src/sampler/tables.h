// SharedTables: the dense, read-mostly sampler front-end the protocol hot
// paths evaluate quorums through.
//
// The samplers I, H and J (sampler.h) are pure functions of public setup
// randomness; a run evaluates the same quorums over and over (every push
// delivery checks I(s, self), every Fw1 checks two H rows and one poll
// list). The old QuorumCache memoized them in an
// unordered_map<(StringKey, NodeId), Quorum> — one hash probe plus two
// heap-allocated vectors per distinct quorum, and two SipHash evaluations
// of *key derivation* per slot per on-demand build.
//
// SharedTables replaces that with dense slabs:
//
//   - QuorumTable: per interned string (dense StringId), the d keyed slot
//     permutations are derived once and cached; quorum rows are built
//     lazily per (string, node) into flat chunked storage behind one
//     shared open-addressed probe (FlatMap64) on the packed (string, node)
//     key, sized to the rows actually touched. Each row stores the
//     slot-order members, a sorted copy (membership / multiplicity are a
//     branch-free count over its d entries, identical semantics to
//     sampler::Quorum), and the first-seen-order distinct member list the
//     send loops iterate. Callers that look the same row up repeatedly
//     (aer::SoaAerState::handle_fw1) may memoize the view: rows never move
//     or change within a trial.
//   - PollTable: poll lists are keyed by (node, label) with labels drawn
//     from the huge domain R, so rows sit behind one open-addressed probe
//     instead of a dense index; storage is the same chunked slab.
//
// Rows live in chunked arenas, so views handed out stay valid while later
// lookups build further rows, and reset() keeps every buffer for the next
// trial — after a warm-up trial the tables allocate nothing (the trial-arena
// zero-allocation contract, bench_micro_primitives::BM_WarmTrialAllocations).
//
// Sharing and mutability: one SharedTables instance is shared read-mostly by
// all n simulated nodes of a trial (it lives in aer::AerShared). Lazy row
// fill makes it logically const but not thread-safe; that is fine because a
// trial is single-threaded — exp::Sweep parallelism is across trials, each
// with its own arena. Sampler setup randomness is drawn per trial seed
// (public setup is re-sampled every run), so what is shared *across* trials
// of a sweep point is the storage, not the contents — rebuilding contents
// into warm storage is what makes per-trial sampler setup a cheap re-key
// instead of an allocation storm.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sampler/sampler.h"
#include "support/flat_map.h"
#include "support/permutation.h"

namespace fba::sampler {

/// A borrowed view of one evaluated quorum row. Valid until the owning
/// table is reset. Mirrors sampler::Quorum's query semantics exactly.
struct QuorumView {
  const NodeId* slots = nullptr;     ///< d members in slot order.
  const NodeId* sorted = nullptr;    ///< the same members, ascending.
  const NodeId* distinct = nullptr;  ///< first-seen-order distinct members.
  std::uint32_t d = 0;
  std::uint32_t distinct_count = 0;

  std::size_t size() const { return d; }

  bool contains(NodeId y) const {
    return multiplicity(y) > 0;
  }

  /// Number of slots occupied by y (multiset multiplicity).
  std::size_t multiplicity(NodeId y) const {
    // A branch-free count over the d sorted slots: d is O(log n) (12 at
    // n = 256, 30 at n = 10^6), so this vectorized scan beats a binary
    // search whose mispredicted steps led the Fw1 handler's profile.
    std::size_t count = 0;
    for (std::uint32_t i = 0; i < d; ++i) count += sorted[i] == y;
    return count;
  }
};

/// Chunked row arena: fixed-capacity NodeId blocks, pointer-stable across
/// growth, fully reused across reset().
class RowArena {
 public:
  /// Rows of `stride` NodeIds each from now on; keeps existing chunks.
  void reset(std::uint32_t stride);

  /// Allocates one row; returns its index (stable addressing via row()).
  std::uint32_t make_row();

  NodeId* row(std::uint32_t index) {
    return chunks_[index >> shift_].get() + (index & mask_) * stride_;
  }
  const NodeId* row(std::uint32_t index) const {
    return chunks_[index >> shift_].get() + (index & mask_) * stride_;
  }

  std::uint32_t rows() const { return count_; }

 private:
  static constexpr std::uint32_t kChunkElems = 1u << 16;  ///< 256 KiB chunks.

  std::vector<std::unique_ptr<NodeId[]>> chunks_;
  std::uint32_t stride_ = 1;
  std::uint32_t shift_ = 0;  ///< log2(rows per chunk)
  std::uint32_t mask_ = 0;   ///< rows per chunk - 1
  std::uint32_t count_ = 0;  ///< rows handed out
};

/// Dense per-string quorum slabs for one QuorumSampler (I or H).
class QuorumTable {
 public:
  /// Binds to `sampler` for a domain of `n` nodes; keeps all storage.
  void reset(const QuorumSampler* sampler, std::size_t n);

  /// The quorum I(s, x) for the interned string `sid` whose content digest
  /// is `key` (AerShared::key_of). Built on first touch; O(1) after.
  QuorumView row(std::uint32_t sid, StringKey key, NodeId x) const;

  /// { x : y in I(s, x) } via the cached slot permutations, written into
  /// `out` (cleared first; capacity reuse).
  void targets(std::uint32_t sid, StringKey key, NodeId y,
               std::vector<NodeId>& out) const;

  /// Rows materialized so far (tests / diagnostics).
  std::size_t rows_built() const { return arena_.rows(); }
  /// String slabs activated since the last reset (memory accounting).
  std::size_t slab_count() const { return active_slabs_; }

 private:
  struct Slab {
    std::uint64_t trial_epoch = 0;            ///< activation marker
    StringKey key = 0;
    std::vector<FeistelPermutation> perms;    ///< d cached sigma_{s,k}
  };

  Slab& activate(std::uint32_t sid, StringKey key) const;

  const QuorumSampler* sampler_ = nullptr;
  std::size_t n_ = 0;
  std::uint64_t epoch_ = 0;
  mutable std::size_t active_slabs_ = 0;
  mutable std::vector<Slab> slabs_;  ///< indexed by dense StringId
  /// packed (sid, x) -> arena row index + 1 (0 = not built yet). One shared
  /// probe table sized to the rows actually touched — a dense per-slab
  /// x -> row vector would cost 4n bytes PER ACTIVATED STRING, which is
  /// O(n^2) for the adversary's Theta(n) junk strings and dominated every
  /// other allocation at n >= 10^5 (docs/perf.md "scale mode").
  mutable support::FlatMap64<std::uint32_t> index_;
  mutable RowArena arena_;
};

/// Poll-list rows J(x, r) behind one open-addressed probe on the packed
/// (x, r) key.
class PollTable {
 public:
  void reset(const PollSampler* sampler, std::size_t n);

  QuorumView row(NodeId x, PollLabel r) const;

  std::size_t rows_built() const { return arena_.rows(); }

 private:
  const PollSampler* sampler_ = nullptr;
  mutable support::FlatMap64<std::uint32_t> index_;  ///< (x, r) -> row
  mutable RowArena arena_;
};

/// The bundle AerShared owns: dense front-ends for I, H and J.
struct SharedTables {
  QuorumTable push;  ///< I
  QuorumTable pull;  ///< H
  PollTable poll;    ///< J

  /// Re-binds to a (re-keyed) suite; all storage is kept.
  void reset(const SamplerSuite& suite, std::size_t n) {
    push.reset(&suite.push, n);
    pull.reset(&suite.pull, n);
    poll.reset(&suite.poll, n);
  }
};

}  // namespace fba::sampler
