#include "sampler/tables.h"

#include <algorithm>

namespace fba::sampler {

// Quorum-row layout in the arena, stride = 1 + 3d NodeIds:
//   [0]              distinct_count
//   [1, 1+d)         members in slot order
//   [1+d, 1+2d)      sorted copy
//   [1+2d, 1+3d)     first-seen-order distinct members (distinct_count used)
// Poll rows prepend a 4-entry identity header (see PollTable::row).
namespace {

constexpr std::uint32_t quorum_stride(std::size_t d) {
  return static_cast<std::uint32_t>(1 + 3 * d);
}

/// Fills the sorted and distinct regions from the slot-order members.
/// `row` points at the distinct_count entry (layout above).
void finish_row(NodeId* row, std::size_t d) {
  NodeId* slots = row + 1;
  NodeId* sorted = row + 1 + d;
  NodeId* distinct = row + 1 + 2 * d;
  std::copy(slots, slots + d, sorted);
  // Insertion sort: d is Theta(log n) (a dozen or two entries), where this
  // beats std::sort's dispatch overhead on every row build.
  for (std::size_t i = 1; i < d; ++i) {
    const NodeId v = sorted[i];
    std::size_t j = i;
    while (j > 0 && sorted[j - 1] > v) {
      sorted[j] = sorted[j - 1];
      --j;
    }
    sorted[j] = v;
  }
  std::uint32_t dc = 0;
  for (std::size_t k = 0; k < d; ++k) {
    const NodeId m = slots[k];
    bool seen = false;
    for (std::uint32_t j = 0; j < dc; ++j) {
      if (distinct[j] == m) {
        seen = true;
        break;
      }
    }
    if (!seen) distinct[dc++] = m;
  }
  row[0] = dc;
}

QuorumView view_of_row(const NodeId* data, std::size_t d) {
  QuorumView v;
  v.distinct_count = data[0];
  v.slots = data + 1;
  v.sorted = data + 1 + d;
  v.distinct = data + 1 + 2 * d;
  v.d = static_cast<std::uint32_t>(d);
  return v;
}

}  // namespace

// ----- RowArena --------------------------------------------------------------

void RowArena::reset(std::uint32_t stride) {
  stride_ = std::max<std::uint32_t>(1, stride);
  FBA_ASSERT(stride_ <= kChunkElems, "sampler row stride exceeds chunk size");
  // Rows per chunk: the largest power of two that fits a fixed-size chunk,
  // so chunks allocated under one stride are reusable under any other.
  std::uint32_t rows = 1;
  while (rows * 2 * stride_ <= kChunkElems) rows *= 2;
  shift_ = 0;
  while ((1u << shift_) < rows) ++shift_;
  mask_ = rows - 1;
  count_ = 0;
}

std::uint32_t RowArena::make_row() {
  const std::uint32_t index = count_++;
  const std::size_t chunk = index >> shift_;
  if (chunk >= chunks_.size()) {
    chunks_.emplace_back(std::make_unique<NodeId[]>(kChunkElems));
  }
  return index;
}

// ----- QuorumTable -----------------------------------------------------------

void QuorumTable::reset(const QuorumSampler* sampler, std::size_t n) {
  sampler_ = sampler;
  n_ = n;
  ++epoch_;
  active_slabs_ = 0;
  index_.clear();
  arena_.reset(quorum_stride(sampler->d()));
}

QuorumTable::Slab& QuorumTable::activate(std::uint32_t sid,
                                         StringKey key) const {
  if (sid >= slabs_.size()) slabs_.resize(sid + 1);
  Slab& slab = slabs_[sid];
  if (slab.trial_epoch != epoch_) {
    slab.trial_epoch = epoch_;
    ++active_slabs_;
    slab.key = key;
    const std::size_t d = sampler_->d();
    slab.perms.clear();
    slab.perms.reserve(d);
    for (std::size_t k = 0; k < d; ++k) {
      slab.perms.push_back(sampler_->slot_permutation(key, k));
    }
  }
  return slab;
}

QuorumView QuorumTable::row(std::uint32_t sid, StringKey key, NodeId x) const {
  Slab& slab = activate(sid, key);
  // Dense StringIds stay far below 2^32 - 1, so the packed key can never
  // collide with FlatMap64's all-ones empty sentinel.
  std::uint32_t& entry =
      index_.get_or_create(static_cast<std::uint64_t>(sid) << 32 | x);
  if (entry == 0) {  // get_or_create zero-initializes: 0 = not built.
    const std::uint32_t idx = arena_.make_row();
    NodeId* data = arena_.row(idx);
    const std::size_t d = sampler_->d();
    for (std::size_t k = 0; k < d; ++k) {
      // I(s, x) = { sigma^{-1}_{s,k}(x) }, as QuorumSampler::quorum.
      data[1 + k] = static_cast<NodeId>(slab.perms[k].inverse(x));
    }
    finish_row(data, d);
    entry = idx + 1;
  }
  return view_of_row(arena_.row(entry - 1), sampler_->d());
}

void QuorumTable::targets(std::uint32_t sid, StringKey key, NodeId y,
                          std::vector<NodeId>& out) const {
  Slab& slab = activate(sid, key);
  out.clear();
  out.reserve(slab.perms.size());
  for (const FeistelPermutation& perm : slab.perms) {
    out.push_back(static_cast<NodeId>(perm.forward(y)));
  }
}

// ----- PollTable -------------------------------------------------------------

// Poll rows carry a 4-entry identity header before the quorum layout:
//   [0] x   [1] r low 32   [2] r high 32   [3] next row in the hash chain
// The open-addressed index maps a 64-bit mix of (x, r) to a chain head; the
// header check resolves mixes that collide (labels are 64-bit on the wire —
// a corrupt sender can put anything there — so (x, r) does not pack
// injectively into 64 bits).
namespace {
constexpr std::uint32_t kPollHeader = 4;
constexpr std::uint32_t kNoRow = 0xffffffffu;

constexpr std::uint32_t poll_stride(std::size_t d) {
  return kPollHeader + quorum_stride(d);
}

std::uint64_t poll_mix(NodeId x, PollLabel r) {
  const std::uint64_t mix =
      r * 0x100000001b3ull + static_cast<std::uint64_t>(x);
  // FlatMap64 reserves the all-ones key as its empty sentinel; remap that
  // one mix to a fixed key (a forged label can reach any 64-bit value, and
  // the chain header disambiguates shared keys anyway).
  return mix == support::FlatMap64<std::uint32_t>::kEmptyKey ? 0x706f6c6cull
                                                             : mix;
}
}  // namespace

void PollTable::reset(const PollSampler* sampler, std::size_t n) {
  (void)n;
  sampler_ = sampler;
  index_.clear();
  arena_.reset(poll_stride(sampler->d()));
}

QuorumView PollTable::row(NodeId x, PollLabel r) const {
  const std::size_t d = sampler_->d();
  std::uint32_t& head = index_.get_or_create(poll_mix(x, r));
  // get_or_create zero-initializes fresh entries; shift indices by one so 0
  // means "no chain yet".
  std::uint32_t idx = head == 0 ? kNoRow : head - 1;
  while (idx != kNoRow) {
    const NodeId* data = arena_.row(idx);
    if (data[0] == x &&
        (static_cast<std::uint64_t>(data[2]) << 32 | data[1]) == r) {
      return view_of_row(data + kPollHeader, d);
    }
    idx = data[3];
  }
  idx = arena_.make_row();
  NodeId* data = arena_.row(idx);
  data[0] = x;
  data[1] = static_cast<NodeId>(r & 0xffffffffu);
  data[2] = static_cast<NodeId>(r >> 32);
  data[3] = head == 0 ? kNoRow : head - 1;
  head = idx + 1;
  for (std::size_t k = 0; k < d; ++k) {
    data[kPollHeader + 1 + k] = sampler_->member(x, r, k);
  }
  finish_row(data + kPollHeader, d);
  return view_of_row(data + kPollHeader, d);
}

}  // namespace fba::sampler
