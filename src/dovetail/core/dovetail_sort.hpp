// DovetailSort (DTSort) — Alg 2 of "Parallel Integer Sort: Theory and
// Practice" (PPoPP 2024). A stable parallel MSD integer sort that detects
// heavily duplicated keys by sampling, gives each its own bucket so it skips
// all further recursion, and dovetail-merges the heavy buckets back between
// the recursively sorted light keys.
//
// Structure of one recursive call on a subproblem of n' records whose keys
// agree on all bits above `bits`:
//   1. Sampling   — estimate the key range (overflow-bucket trick, Sec 5)
//                   and detect heavy keys (Sec 2.5); assign bucket ids so
//                   that each MSD zone is [light | its heavy buckets...]
//                   and buckets are globally ordered (Sec 3.1).
//   2. Distribute — one stable parallel counting sort by bucket id into the
//                   other buffer of an (A, T) ping-pong pair (Sec 3.2, 5).
//   3. Recurse    — sort each light bucket on the next digit; heavy buckets
//                   are already fully sorted and skip recursion (Sec 3.3).
//   4. Dovetail   — per zone, interleave heavy buckets with the sorted
//                   light bucket via DTMerge (Alg 3, Sec 3.4).
// Base cases: no bits left, or n' <= θ (stable comparison sort, Sec 3.5).
//
// Work O(n sqrt(log r)), span ~O(2^sqrt(log r)) per Thm 4.5; stable.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "dovetail/core/bucket_table.hpp"
#include "dovetail/core/distribute.hpp"
#include "dovetail/core/dt_merge.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/sampling.hpp"
#include "dovetail/core/sort_options.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/parallel/sort.hpp"
#include "dovetail/util/bits.hpp"

namespace dovetail {

namespace detail {

template <typename Rec, typename KeyFn>
class dt_sorter {
 public:
  using key_type = std::decay_t<std::invoke_result_t<KeyFn, const Rec&>>;
  static_assert(std::is_unsigned_v<key_type>,
                "dovetail_sort requires an unsigned integer key");
  static_assert(std::is_trivially_copyable_v<Rec>,
                "dovetail_sort requires trivially copyable records");

  dt_sorter(std::span<Rec> data, const KeyFn& key, const sort_options& opt)
      : a_(data), key_(key), opt_(opt) {
    const std::size_t n = std::max<std::size_t>(2, data.size());
    log2n_ = std::max<std::size_t>(1, ceil_log2(n));
    gamma_ = opt.gamma > 0
                 ? opt.gamma
                 : std::clamp<int>(static_cast<int>(log2n_ / 3), 8, 12);
    stride_ = opt.sample_stride != 0
                  ? opt.sample_stride
                  : std::clamp<std::size_t>(log2n_, 4, 24);
    theta_ = std::max<std::size_t>(opt.base_case, 2);
  }

  void run() {
    if (a_.size() <= 1) return;
    // All engine scratch — the ping-pong buffer, bucket-id arrays,
    // counting matrices and offsets — comes from one workspace, sized at
    // the top level and reused across every recursion level. An external
    // workspace (opt.workspace) additionally carries that memory across
    // repeated sorts, so warm re-sorts perform zero workspace allocations
    // (see test_workspace.cpp); only the small per-node sampling and
    // bucket-table vectors still touch the heap.
    sort_workspace local_ws;
    ws_ = opt_.workspace != nullptr ? opt_.workspace : &local_ws;
    t_ = ws_->template record_buffer<Rec>(a_.size(), opt_.stats);
    sort_rec(0, a_.size(), std::numeric_limits<key_type>::digits,
             /*in_a=*/true, opt_.seed, /*depth=*/1);
    ws_ = nullptr;
  }

 private:
  [[nodiscard]] std::uint64_t keyof(const Rec& r) const {
    return static_cast<std::uint64_t>(key_(r));
  }

  // Stable comparison sort of [lo, hi) in the buffer currently holding the
  // data; the result always ends in A. The matching segment of the other
  // buffer is dead space and serves as mergesort scratch.
  void comparison_base(std::size_t lo, std::size_t hi, bool in_a) {
    const std::size_t n = hi - lo;
    auto cur = (in_a ? a_ : t_).subspan(lo, n);
    if (n > 1) {
      auto comp = [this](const Rec& x, const Rec& y) {
        return key_(x) < key_(y);
      };
      if (n > (std::size_t{1} << 15)) {
        auto scratch = (in_a ? t_ : a_).subspan(lo, n);
        par::merge_sort(cur, scratch, comp);
      } else {
        std::stable_sort(cur.begin(), cur.end(), comp);
      }
    }
    if (!in_a)
      par::copy(std::span<const Rec>(cur), a_.subspan(lo, n));
  }

  void sort_rec(std::size_t lo, std::size_t hi, int bits, bool in_a,
                std::uint64_t seed, std::uint64_t depth) {
    const std::size_t n = hi - lo;
    if (n == 0) return;
    if (bits == 0 || n == 1) {  // all bits sorted (Alg 2 line 1)
      if (!in_a)
        par::copy(std::span<const Rec>(t_.subspan(lo, n)), a_.subspan(lo, n));
      return;
    }
    if (n <= theta_) {  // comparison-sort base case (Alg 2 line 2)
      if (opt_.stats != nullptr)
        opt_.stats->base_case_records.fetch_add(n, std::memory_order_relaxed);
      comparison_base(lo, hi, in_a);
      return;
    }

    std::span<Rec> cur = in_a ? a_ : t_;
    std::span<Rec> oth = in_a ? t_ : a_;
    std::span<const Rec> data(cur.data() + lo, n);
    const std::uint64_t mask = low_mask(bits);

    // ---- Step 1: sampling ----
    // Digit width: γ, but never more than sqrt-ish of the subproblem so the
    // sampling cost stays o(n') (Thm 4.5 needs n' >= 2^2γ for the level).
    const int dcap = std::min(
        {gamma_, bits,
         std::max(2, static_cast<int>(floor_log2(n) / 2))});
    const std::size_t zones_cap = std::size_t{1} << dcap;

    sample_result sr;
    int eff_bits = bits;
    const bool use_sampling = opt_.detect_heavy || opt_.skip_leading_bits;
    if (use_sampling) {
      const std::size_t ns = std::min<std::size_t>(n, zones_cap * stride_);
      sr = sample_keys(
          data, [this](const Rec& r) { return keyof(r); }, mask, ns, stride_,
          opt_.detect_heavy, seed);
      if (opt_.skip_leading_bits) eff_bits = bit_width_u64(sr.max_sample);
    }
    const int digit = std::min(dcap, eff_bits);
    const int shift = eff_bits - digit;
    const std::size_t zones = std::size_t{1} << digit;
    const bool has_overflow = eff_bits < bits;

    const bucket_table bt(sr.heavy_keys, shift, zones);
    const std::size_t nb = bt.num_buckets();

    // ---- Step 2: distribute (stable counting sort by bucket id) ----
    auto bucket_of = [&](const Rec& r) -> std::size_t {
      const std::uint64_t kp = keyof(r) & mask;
      if (has_overflow && (kp >> eff_bits) != 0) return bt.overflow_id();
      return bt.lookup(kp);
    };
    sort_workspace::lease off_lease =
        ws_->acquire((nb + 1) * sizeof(std::size_t), opt_.stats);
    const std::span<std::size_t> offs = off_lease.carve<std::size_t>(nb + 1);
    distribute_options dopt;
    dopt.require_stable = true;  // DTSort's stability guarantee
    dopt.workspace = ws_;
    dopt.stats = opt_.stats;
    distribute(data, oth.subspan(lo, n), nb, bucket_of, offs, dopt);

    if (sort_stats* st = opt_.stats; st != nullptr) {
      st->distributed_records.fetch_add(n, std::memory_order_relaxed);
      st->num_distributions.fetch_add(1, std::memory_order_relaxed);
      st->sampled_keys.fetch_add(sr.num_samples, std::memory_order_relaxed);
      st->num_heavy_buckets.fetch_add(sr.heavy_keys.size(),
                                      std::memory_order_relaxed);
      st->note_depth(depth);
      st->overflow_records.fetch_add(offs[nb] - offs[bt.overflow_id()],
                                     std::memory_order_relaxed);
      // Heavy records = everything outside the light buckets and overflow.
      std::uint64_t light_total = 0;
      for (std::size_t z = 0; z < zones; ++z) {
        const std::uint32_t lid = bt.light_id(z);
        light_total += offs[lid + 1] - offs[lid];
      }
      st->heavy_records.fetch_add(
          offs[bt.overflow_id()] - light_total, std::memory_order_relaxed);
    }

    const bool child_in_a = !in_a;  // records now live in `oth`

    // ---- Steps 3 + 4, per MSD zone in parallel; slot `zones` handles the
    // overflow bucket. ----
    par::parallel_for(
        0, zones + 1,
        [&](std::size_t z) {
          if (z == zones) {
            // Overflow bucket: keys above the sampled range; comparison
            // sort (they are few whp) and land in A.
            const std::size_t blo = lo + offs[bt.overflow_id()];
            const std::size_t bhi = lo + offs[nb];
            if (bhi > blo) comparison_base(blo, bhi, child_in_a);
            return;
          }
          const std::uint32_t lid = bt.light_id(z);
          const std::uint32_t next =
              z + 1 < zones ? bt.light_id(z + 1) : bt.overflow_id();
          const std::size_t zlo = lo + offs[lid];
          const std::size_t zhi = lo + offs[next];
          if (zhi == zlo) return;
          const std::size_t light_sz = offs[lid + 1] - offs[lid];
          const std::size_t m = next - lid - 1;  // heavy buckets in zone

          // Step 3: recurse on the light bucket (result lands in A).
          if (light_sz > 0)
            sort_rec(zlo, zlo + light_sz, shift, child_in_a,
                     par::hash64(seed + z + 1), depth + 1);

          if (m == 0) return;

          // Heavy buckets skip recursion; make sure they are in A.
          if (!child_in_a) {
            par::copy(std::span<const Rec>(t_.data() + zlo + light_sz,
                                           zhi - zlo - light_sz),
                      a_.subspan(zlo + light_sz, zhi - zlo - light_sz));
          }

          // Step 4: dovetail merging within the zone.
          std::vector<std::size_t> sizes(m);
          for (std::size_t i = 0; i < m; ++i)
            sizes[i] = offs[lid + 2 + i] - offs[lid + 1 + i];
          if (opt_.ablate_skip_merge) return;  // Fig 4(c,d) "Others" timing
          if (opt_.stats != nullptr)
            opt_.stats->merged_records.fetch_add(zhi - zlo,
                                                 std::memory_order_relaxed);

          auto zone_span = a_.subspan(zlo, zhi - zlo);
          auto tmp_span = t_.subspan(zlo, zhi - zlo);
          if (opt_.use_dt_merge)
            dt_merge(zone_span, light_sz, std::span<const std::size_t>(sizes),
                     key_, tmp_span);
          else
            pl_merge(zone_span, light_sz, key_, tmp_span);
        },
        1);
  }

  std::span<Rec> a_;
  std::span<Rec> t_;
  const KeyFn key_;
  const sort_options opt_;
  sort_workspace* ws_ = nullptr;
  std::size_t log2n_ = 1;
  int gamma_ = 8;
  std::size_t stride_ = 8;
  std::size_t theta_ = 1 << 14;
};

}  // namespace detail

// Sort `data` in place by `key(record)` in non-decreasing key order.
//
// Requirements: Rec is trivially copyable; `key` is a pure function of the
// record (it is called multiple times per record) returning an unsigned
// integer or any other codec-covered type (key_codec.hpp) — non-unsigned
// keys are sorted by their order-preserving encoding. `data` must not
// overlap the workspace's buffers.
//
// Guarantees:
//   * Stable — records with equal keys keep their input order (every
//     distribution pass runs the engine's stable `direct` scatter).
//   * O(n sqrt(log r)) work and ~O(2^sqrt(log r)) span (r = key range;
//     Thm 4.5), O(n) work for exponential key-frequency or few-distinct-key
//     inputs (Thm 4.6/4.7).
//   * Deterministic for a fixed opt.seed (Appendix A).
//
// Space: O(n) extra (the ping-pong record buffer + per-level scratch), all
// leased from a sort_workspace. Pass one via opt.workspace to reuse it
// across repeated sorts — after the first (warm-up) sort, re-sorts of
// equal-or-smaller inputs perform zero workspace allocations. A workspace
// serves one in-flight sort at a time; concurrent sorts need distinct
// workspaces (opt.workspace = nullptr gives each call a private one).
template <typename Rec, typename KeyFn>
void dovetail_sort(std::span<Rec> data, const KeyFn& key,
                   const sort_options& opt = {}) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  // Honor the per-call parallelism cap for the whole sort, sampling and
  // distribution included; records the effective count when stats are on.
  const par::scoped_worker_limit worker_cap(opt.num_threads);
  if (opt.stats != nullptr)
    opt.stats->effective_workers.store(
        static_cast<std::uint64_t>(par::effective_workers()),
        std::memory_order_relaxed);
  if constexpr (std::is_unsigned_v<K>) {
    detail::dt_sorter<Rec, KeyFn> s(data, key, opt);
    s.run();
  } else {
    // Typed keys (key_codec.hpp): run the kernel over the order-preserving
    // unsigned encoding. The records themselves are scattered unchanged,
    // so no decode pass is needed.
    static_assert(sortable_key<K>,
                  "dovetail_sort: the key type has no key_codec "
                  "(see core/key_codec.hpp)");
    const auto enc = [&key](const Rec& r) {
      return key_codec<K>::encode(key(r));
    };
    detail::dt_sorter<Rec, decltype(enc)> s(data, enc, opt);
    s.run();
  }
}

// Convenience overload for spans of plain keys — unsigned, or any other
// codec-covered trivially-copyable type (signed integers, float/double).
template <typename K>
  requires(sortable_key<K> && std::is_trivially_copyable_v<K>)
void dovetail_sort(std::span<K> data, const sort_options& opt = {}) {
  dovetail_sort(data, [](const K& k) { return k; }, opt);
}

}  // namespace dovetail
