// The unified distribution engine: one stable blocked counting-sort kernel
// (Sec 2.4 / Appendix B) serving every radix layer in the library — DTSort's
// recursive distribution, the LSD baseline, semisort, and the unstable
// Thm 4.1 variant — backed by a reusable sort_workspace so the hot path
// performs no allocations.
//
// Phases of one distribute() call on n records and B buckets:
//   0. bucket ids are evaluated once per record into a leased id array
//      (uint16 when B <= 2^16, halving the footprint — bucket_of may be a
//      hash-table probe in DTSort, so one evaluation per pass matters);
//   1. the input is split into L blocks; each block counts its records per
//      bucket into a row of a leased L x B counting matrix;
//   2. column-major exclusive prefix sums yield global bucket offsets and
//      per-(block, bucket) output cursors — bucket-major then block-major,
//      which is exactly the stable order;
//   3. scatter, per strategy (scatter_strategy in sort_options.hpp):
//        direct    one store per record to its cursor;
//        unstable  one atomic fetch-and-add per record (Thm 4.1); skips the
//                  cursor conversion, order within a bucket unspecified.
//
// Work O(n + L*B), span O(B + n/L + log n). All scratch (ids, matrix) is
// leased from a sort_workspace; after warm-up every lease is a freelist hit
// (see workspace.hpp and test_workspace.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "dovetail/core/sort_options.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/util/simd.hpp"

namespace dovetail {

struct distribute_options {
  scatter_strategy strategy = scatter_strategy::direct;
  // Set by stable sorts: downgrades an `unstable` strategy request to
  // `direct` so a pass can never silently break a stability guarantee.
  bool require_stable = false;
  // Scratch arena; nullptr = a private ephemeral workspace per call (slabs
  // are still pooled across the phases of the call, then freed).
  sort_workspace* workspace = nullptr;
  sort_stats* stats = nullptr;
};

namespace detail {

struct block_geometry {
  std::size_t nblocks;
  std::size_t bsize;
};

// Appendix B: keep the counting matrix around L1/L2 size — blocks of at
// least max(8*B, 16384) records, at most 8 blocks per worker.
inline block_geometry distribution_blocks(std::size_t n,
                                          std::size_t num_buckets) {
  const auto p = static_cast<std::size_t>(par::num_workers());
  const std::size_t min_block = std::max<std::size_t>(8 * num_buckets, 16384);
  const std::size_t nblocks = std::clamp<std::size_t>(n / min_block, 1, 8 * p);
  return {nblocks, (n + nblocks - 1) / nblocks};
}

// Phase 1 of the engine: zero and fill the L x B counting matrix, one row
// per block. `bucket_at(i)` is the bucket of record i (an id-array read or
// a direct bucket_of evaluation).
template <typename GetBucket>
void count_blocks(std::size_t n, std::size_t num_buckets,
                  const block_geometry& g, const GetBucket& bucket_at,
                  std::span<std::size_t> counts) {
  par::parallel_for(
      0, g.nblocks,
      [&, bsize = g.bsize](std::size_t b) {
        const std::size_t lo = b * bsize, hi = std::min(n, lo + bsize);
        std::size_t* row = counts.data() + b * num_buckets;
        std::fill(row, row + num_buckets, 0);
        for (std::size_t i = lo; i < hi; ++i) ++row[bucket_at(i)];
      },
      1);
}

// count_blocks over a materialized id array. The 16-bit id case — every
// engine pass with B <= 2^16, i.e. all of them in practice — routes through
// simd::histogram_u16: 8-lane AVX2 widening with four interleaved
// sub-histograms when the CPU has it, the identical scalar loop otherwise
// (util/simd.hpp; counts are exact sums either way).
template <typename IdT>
void count_blocks_ids(std::size_t n, std::size_t num_buckets,
                      const block_geometry& g, const IdT* ids,
                      std::span<std::size_t> counts) {
  par::parallel_for(
      0, g.nblocks,
      [&, bsize = g.bsize](std::size_t b) {
        const std::size_t lo = b * bsize, hi = std::min(n, lo + bsize);
        std::size_t* row = counts.data() + b * num_buckets;
        std::fill(row, row + num_buckets, 0);
        if constexpr (std::is_same_v<IdT, std::uint16_t>) {
          simd::histogram_u16(ids + lo, hi - lo, row, num_buckets);
        } else {
          for (std::size_t i = lo; i < hi; ++i) ++row[ids[i]];
        }
      },
      1);
}

// Column sums of the counting matrix: totals[k] = bucket k's size.
inline void column_totals(std::span<const std::size_t> counts,
                          std::size_t nblocks, std::size_t num_buckets,
                          std::span<std::size_t> totals) {
  par::parallel_for(0, num_buckets, [&](std::size_t k) {
    std::size_t c = 0;
    for (std::size_t b = 0; b < nblocks; ++b) c += counts[b * num_buckets + k];
    totals[k] = c;
  });
}

// Engine body, monomorphized on the id width.
template <typename IdT, typename Rec, typename BucketFn>
void distribute_ids(std::span<const Rec> in, std::span<Rec> out,
                    std::size_t num_buckets, const BucketFn& bucket_of,
                    std::span<std::size_t> offsets, sort_workspace& ws,
                    scatter_strategy strategy, sort_stats* stats) {
  const std::size_t n = in.size();
  const block_geometry g = distribution_blocks(n, num_buckets);
  const std::size_t nblocks = g.nblocks, bsize = g.bsize;

  // Phase 0: bucket ids, one bucket_of evaluation per record.
  sort_workspace::lease id_lease = ws.acquire(n * sizeof(IdT), stats);
  std::span<IdT> ids = id_lease.carve<IdT>(n);
  par::parallel_for(0, n, [&](std::size_t i) {
    ids[i] = static_cast<IdT>(bucket_of(in[i]));
  });

  // Phase 1: L x B counting matrix (+ bucket totals) from one leased slab.
  // Leased memory is stale; count_blocks zeroes each row before counting.
  sort_workspace::lease cm_lease = ws.acquire(
      (nblocks + 1) * num_buckets * sizeof(std::size_t) + kSlabAlign, stats);
  std::span<std::size_t> counts =
      cm_lease.carve<std::size_t>(nblocks * num_buckets);
  std::span<std::size_t> totals = cm_lease.carve<std::size_t>(num_buckets);
  count_blocks_ids(n, num_buckets, g, ids.data(), counts);

  // Phase 2: bucket totals, then global bucket starts (small, sequential).
  column_totals(counts, nblocks, num_buckets, totals);
  std::size_t acc = 0;
  for (std::size_t k = 0; k < num_buckets; ++k) {
    offsets[k] = acc;
    acc += totals[k];
  }
  offsets[num_buckets] = acc;

  if (strategy == scatter_strategy::unstable) {
    // Thm 4.1 scatter: per-bucket cursors claimed with fetch-and-add. The
    // totals row doubles as cursor storage.
    par::parallel_for(0, num_buckets,
                      [&](std::size_t k) { totals[k] = offsets[k]; });
    par::parallel_for(0, n, [&](std::size_t i) {
      const std::size_t pos = std::atomic_ref<std::size_t>(totals[ids[i]])
                                  .fetch_add(1, std::memory_order_relaxed);
      out[pos] = in[i];
    });
    return;
  }

  // Turn counts into per-(block, bucket) output cursors; each cell is then
  // owned by exactly one block, so the scatter is race-free and stable.
  par::parallel_for(0, num_buckets, [&](std::size_t k) {
    std::size_t cur = offsets[k];
    for (std::size_t b = 0; b < nblocks; ++b) {
      const std::size_t c = counts[b * num_buckets + k];
      counts[b * num_buckets + k] = cur;
      cur += c;
    }
  });

  par::parallel_for(
      0, nblocks,
      [&, bsize = bsize](std::size_t b) {
        const std::size_t lo = b * bsize, hi = std::min(n, lo + bsize);
        std::size_t* row = counts.data() + b * num_buckets;
        for (std::size_t i = lo; i < hi; ++i) out[row[ids[i]]++] = in[i];
      },
      1);
}

}  // namespace detail

// Distribute `in` into `out` by bucket id. `bucket_of(rec)` must return a
// value in [0, num_buckets); `in` and `out` must not alias and must have
// equal size; `offsets` must have size num_buckets + 1 and is filled so
// that offsets[k] is the first index of bucket k in `out` and
// offsets[num_buckets] == in.size(). Stable unless the `unstable` strategy
// is requested explicitly.
template <typename Rec, typename BucketFn>
void distribute(std::span<const Rec> in, std::span<Rec> out,
                std::size_t num_buckets, const BucketFn& bucket_of,
                std::span<std::size_t> offsets,
                const distribute_options& opt = {}) {
  assert(offsets.size() == num_buckets + 1);
  assert(in.size() == out.size());
  const std::size_t n = in.size();
  if (n == 0) {
    std::fill(offsets.begin(), offsets.end(), 0);
    return;
  }
  assert(in.data() != static_cast<const Rec*>(out.data()));
  if (num_buckets == 1) {
    // Single bucket: the permutation is the identity — one parallel copy,
    // no id array, no counting matrix.
    offsets[0] = 0;
    offsets[1] = n;
    par::copy(in, out);
    return;
  }
  sort_workspace local_ws;  // used only when no workspace was passed
  sort_workspace& ws = opt.workspace != nullptr ? *opt.workspace : local_ws;
  const scatter_strategy s = opt.require_stable
                                 ? scatter_strategy::direct
                                 : opt.strategy;
  if (sort_stats* st = opt.stats; st != nullptr) {
    (s == scatter_strategy::direct ? st->scatter_direct_calls
                                   : st->scatter_unstable_calls)
        .fetch_add(1, std::memory_order_relaxed);
  }
  if (num_buckets <= (std::size_t{1} << 16)) {
    detail::distribute_ids<std::uint16_t>(in, out, num_buckets, bucket_of,
                                          offsets, ws, s, opt.stats);
  } else {
    detail::distribute_ids<std::uint32_t>(in, out, num_buckets, bucket_of,
                                          offsets, ws, s, opt.stats);
  }
}

// Counting phase of the engine without the scatter: per-block histogram
// reduced into `counts_out` (size num_buckets). Used by in-place sorts that
// permute records within the input array instead of scattering out-of-place.
template <typename Rec, typename BucketFn>
void distribute_histogram(std::span<const Rec> in, std::size_t num_buckets,
                          const BucketFn& bucket_of,
                          std::span<std::size_t> counts_out,
                          const distribute_options& opt = {}) {
  assert(counts_out.size() == num_buckets);
  const std::size_t n = in.size();
  if (n == 0 || num_buckets == 1) {
    std::fill(counts_out.begin(), counts_out.end(), 0);
    if (num_buckets == 1) counts_out[0] = n;
    return;
  }
  sort_workspace local_ws;  // used only when no workspace was passed
  sort_workspace& ws = opt.workspace != nullptr ? *opt.workspace : local_ws;
  const detail::block_geometry g =
      detail::distribution_blocks(n, num_buckets);
  sort_workspace::lease cm_lease =
      ws.acquire(g.nblocks * num_buckets * sizeof(std::size_t), opt.stats);
  std::span<std::size_t> counts =
      cm_lease.carve<std::size_t>(g.nblocks * num_buckets);
  detail::count_blocks(n, num_buckets, g,
                       [&](std::size_t i) { return bucket_of(in[i]); },
                       counts);
  detail::column_totals(counts, g.nblocks, num_buckets, counts_out);
}

// Digit-histogram variant of distribute_histogram for raw unsigned keys:
// bucket_of is fixed to (key >> shift) & mask, which lets each block row
// fill through simd::histogram_digit (vector shift+mask on AVX2, the same
// scalar loop otherwise). The in-place kernel's counting pass on pure-key
// records; counts are byte-identical to the generic path.
template <typename K>
  requires(std::is_same_v<K, std::uint32_t> || std::is_same_v<K, std::uint64_t>)
void distribute_histogram_digits(std::span<const K> keys, int shift, K mask,
                                 std::span<std::size_t> counts_out,
                                 const distribute_options& opt = {}) {
  const std::size_t num_buckets = static_cast<std::size_t>(mask) + 1;
  assert(counts_out.size() == num_buckets);
  const std::size_t n = keys.size();
  if (n == 0 || num_buckets == 1) {
    std::fill(counts_out.begin(), counts_out.end(), 0);
    if (num_buckets == 1) counts_out[0] = n;
    return;
  }
  sort_workspace local_ws;  // used only when no workspace was passed
  sort_workspace& ws = opt.workspace != nullptr ? *opt.workspace : local_ws;
  const detail::block_geometry g =
      detail::distribution_blocks(n, num_buckets);
  sort_workspace::lease cm_lease =
      ws.acquire(g.nblocks * num_buckets * sizeof(std::size_t), opt.stats);
  std::span<std::size_t> counts =
      cm_lease.carve<std::size_t>(g.nblocks * num_buckets);
  par::parallel_for(
      0, g.nblocks,
      [&, bsize = g.bsize](std::size_t b) {
        const std::size_t lo = b * bsize, hi = std::min(n, lo + bsize);
        std::size_t* row = counts.data() + b * num_buckets;
        std::fill(row, row + num_buckets, 0);
        simd::histogram_digit(keys.data() + lo, hi - lo, shift, mask, row);
      },
      1);
  detail::column_totals(counts, g.nblocks, num_buckets, counts_out);
}

}  // namespace dovetail
