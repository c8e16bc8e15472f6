// dovetail::sort / sort_by_key / rank — the adaptive front door of the
// library, generalized over typed keys by the key-codec layer
// (key_codec.hpp).
//
// The paper's headline result (Tab 3 / Fig 1) is that no single integer
// sort wins everywhere: DTSort dominates on skewed and heavy-duplicate
// inputs, LSD-style radix sorts win on small dense keys, and for tiny or
// (near-)sorted inputs neither is the right tool. This header turns that
// observation into one entry point: sketch the input cheaply
// (input_sketch.hpp), then route through a pluggable dispatch_policy to the
// kernel the evidence says is fastest, with its parameters tuned from the
// same sketch.
//
// Kernels (all stable, all running through the shared sort_workspace):
//   std_sort  — sequential std::stable_sort; below the serial threshold the
//               parallel machinery costs more than it saves.
//   run_merge — detect maximal non-decreasing runs and merge adjacent runs
//               pairwise (O(n log R) for R runs): near-sorted inputs finish
//               in one or two passes, a fully sorted input in zero. A
//               strictly descending input is reversed in place first (no
//               equal keys can exist in a strictly descending sequence, so
//               the reversal is trivially stable).
//   counting  — one stable distribution pass over the exact key range
//               (counting sort): unbeatable when max-min is small, because
//               every other kernel pays at least one extra pass.
//   lsd       — classic LSD radix sort (baselines/lsd_radix_sort.hpp):
//               a few fixed 8-bit passes, each the engine's direct scatter.
//   dtsort    — dovetail_sort with auto gamma and the overflow-bucket range
//               trick: the heavy-duplicate / wide-key workhorse.
//
// The default thresholds are derived from the committed BENCH_suite.json
// baseline and cross-checked by the bench_suite "auto" family; docs/
// TUNING.md walks through the evidence behind each one and how to re-derive
// them on your machine. policy::always(kernel) pins a kernel (parameter
// tuning still applies) — that is what the "auto" benchmarks use to compare
// the dispatcher against every hand-picked kernel.
//
// Typed keys (key_codec.hpp): every entry point accepts any codec-covered
// key type — signed integers, float/double, pair/tuple composites, 128-bit
// integers, strings, or a user key_codec specialization — not just
// unsigned integers. How it reaches the kernels is the KEY PLAN (the
// detail section below, ARCHITECTURE.md has the diagram), decided once:
//   * cheap codecs (all built-ins) on radix records (util/record.hpp:
//     plain structs, std::pair / std::tuple members included) FUSE the
//     encode into the key function, so every kernel, the sketch and the
//     dispatch operate on encoded keys with no extra pass and no extra
//     memory — records are scattered as-is and never decoded; WIDE keys
//     (multi-word codecs) fuse into the segmented-MSD refine driver of
//     core/wide_sort.hpp: sort by word 0 through this same dispatcher,
//     then refine equal-prefix segments word by word;
//   * everything else takes the PERMUTATION ROUTE: encode every key once
//     into workspace-leased (encoded words, index) records, sort them
//     through the same drivers, and emit the stable permutation — applied
//     to the records with one gather (sort_stats::encode_once_calls counts
//     gathers). The route also powers the SoA entry points:
//       - sort_by_key(keys, values) sorts parallel key/value arrays
//         without ever dragging the value bytes through a radix pass
//         (4-byte keys stop hauling 32-byte rows through every scatter);
//       - rank(data, key) returns the stable sorted permutation (argsort)
//         without moving — or even being able to write — the records.
// Which entry point ran and which codec it used land in sort_stats
// (entry_point / codec_kind_id / codec_encoded_bits snapshots).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "dovetail/baselines/lsd_radix_sort.hpp"
#include "dovetail/core/distribute.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/inplace_sort.hpp"
#include "dovetail/core/input_sketch.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/sort_options.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/wide_sort.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/merge.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"

namespace dovetail {

enum class sort_kernel : std::uint8_t {
  std_sort,
  run_merge,
  counting,
  lsd,
  dtsort,
  // In-place block-permutation MSD radix (core/inplace_sort.hpp): O(n)
  // ping-pong buffer replaced by O(buckets * block) scratch. UNSTABLE —
  // auto-chosen only under a memory budget when instability is
  // unobservable (pure-key records) or permitted (stability::relaxed);
  // policy::always(inplace) demands the same safety or throws.
  inplace,
};

inline constexpr int kNumSortKernels = 6;

inline const char* kernel_name(sort_kernel k) {
  switch (k) {
    case sort_kernel::std_sort: return "StdSort";
    case sort_kernel::run_merge: return "RunMerge";
    case sort_kernel::counting: return "Counting";
    case sort_kernel::lsd: return "LSD";
    case sort_kernel::dtsort: return "DTSort";
    case sort_kernel::inplace: return "InPlace";
  }
  return "?";
}

// Decode sort_stats::chosen_kernel (0 = no dispatch recorded).
inline std::optional<sort_kernel> chosen_kernel_of(const sort_stats& st) {
  const std::uint64_t v = st.chosen_kernel.load(std::memory_order_relaxed);
  if (v == 0 || v > static_cast<std::uint64_t>(kNumSortKernels))
    return std::nullopt;
  return static_cast<sort_kernel>(v - 1);
}

// Stable argsort / permutation index type returned by dovetail::rank.
using index_t = std::size_t;

// Which public front-door entry point ran last — recorded as
// 1 + static_cast<int>(sort_entry) in sort_stats::entry_point, next to the
// codec snapshots (codec_kind_id = 1 + codec_kind, codec_encoded_bits).
enum class sort_entry : std::uint8_t { sort, sort_by_key, rank };

inline constexpr int kNumSortEntries = 3;
inline constexpr int kNumCodecKinds =
    1 + static_cast<int>(codec_kind::custom);

inline const char* entry_name(sort_entry e) {
  switch (e) {
    case sort_entry::sort: return "sort";
    case sort_entry::sort_by_key: return "sort_by_key";
    case sort_entry::rank: return "rank";
  }
  return "?";
}

// Decode sort_stats::entry_point / codec_kind_id (0 = nothing recorded).
inline std::optional<sort_entry> entry_point_of(const sort_stats& st) {
  const std::uint64_t v = st.entry_point.load(std::memory_order_relaxed);
  if (v == 0 || v > static_cast<std::uint64_t>(kNumSortEntries))
    return std::nullopt;
  return static_cast<sort_entry>(v - 1);
}

inline std::optional<codec_kind> codec_kind_of(const sort_stats& st) {
  const std::uint64_t v = st.codec_kind_id.load(std::memory_order_relaxed);
  if (v == 0 || v > static_cast<std::uint64_t>(kNumCodecKinds))
    return std::nullopt;
  return static_cast<codec_kind>(v - 1);
}

// A dispatch decision: the kernel plus its sketch-tuned parameters.
struct kernel_plan {
  sort_kernel kernel = sort_kernel::dtsort;
  int gamma = 0;  // digit width for lsd/dtsort; 0 = the kernel's default
  // Always `direct`; kept because perfbench/ copies it into lsd_options.
  scatter_strategy scatter = scatter_strategy::direct;
  // Workers the kernel runs under (1 = serial; see parallel_crossover_n).
  // Recorded in sort_stats::chosen_parallelism next to chosen_kernel.
  int parallelism = 1;
  const char* reason = "";  // the rule that fired (for logs/debugging)
};

// The pluggable routing policy. Every threshold is a public field so a
// deployment can re-derive them for its hardware (docs/TUNING.md has the
// recipe); the defaults are fitted to the committed BENCH_suite.json
// baseline. `policy::always(k)` skips the kernel choice but keeps the
// sketch-driven parameter tuning, so pinned kernels in benchmarks run
// exactly what the dispatcher would run.
struct dispatch_policy {
  // Forced kernel (policy::always); kernel choice is skipped when set.
  bool forced = false;
  sort_kernel forced_kernel = sort_kernel::dtsort;

  // n at or below this sorts with sequential std::stable_sort. The radix
  // kernels overtake a comparison sort astonishingly early (measured
  // crossover ~2^9-2^10 records on the baseline box: LSD 7.6us vs
  // std::stable_sort 4.5us at n=512, and 2x ahead by n=1024), so this only
  // guards the regime where sketching + workspace setup are not worth it.
  std::size_t serial_threshold = 512;
  // The stability contract (sort_options.hpp): strict keeps every
  // auto-chosen kernel stable; relaxed certifies the caller cannot observe
  // the order of equal records, unlocking the unstable in-place kernel for
  // the memory-budget rule below and for policy::always(inplace) on
  // payload-carrying records. Pure-key records (detected from the key
  // functor, input_sketch::pure_key_records) never need relaxed.
  stability stability_mode = stability::strict;
  // Peak extra workspace the caller will tolerate, in bytes; 0 = no budget.
  // When the out-of-place kernels' O(n) record ping-pong lease
  // (n * sizeof(record)) would exceed this AND instability is safe (pure
  // keys or relaxed), the dispatcher routes to the in-place kernel, whose
  // scratch is O(2^gamma * block) — see core/inplace_sort.hpp and
  // sort_stats::peak_workspace_bytes for the measured high-water mark.
  std::size_t memory_budget_bytes = 0;
  // Try the run-merge kernel when no sampled adjacent pair descends (or
  // none ascends — reverse-sorted). Confirmed by an exact run scan; inputs
  // with more than run_merge_max_runs(n) runs fall through to the radix
  // kernels, where merging would cost more than O(n sqrt(log r)) work.
  // 0 = auto: max(64, 4 log2 n) runs, i.e. merge depth ≲ log2 log-ish n.
  std::size_t run_merge_max_runs = 0;
  // One-pass counting sort when the exact key range (max - min) is at most
  // this. The competitor is not a full-width radix sort but LSD over the
  // *detected* bits — two 8-bit passes for any range up to 2^16 — so the
  // single pass only wins while its bucket cursors stay cache-resident:
  // measured crossover ~2^12 (n=1e6: counting 7.9ms vs LSD 11.3ms at range
  // 2^10, 14.4 vs 11.2 by 2^13).
  std::size_t counting_max_range = std::size_t{1} << 12;
  // Duplicate regime => dtsort (heavy-key buckets skip all recursion,
  // Thm 4.6/4.7): fires when the most frequent sampled key exceeds
  // dtsort_top_freq, or when the sample is nearly all duplicates
  // (distinct_ratio below dtsort_distinct_ratio), or when key_bits is
  // large (see lsd_max_key_bits). Evidence: BENCH_suite.json table3-32
  // rows Unif-10 / BExp-100 / BExp-300 (DTSort 2-4x over LSD) vs
  // Zipf-1.5 / BExp-30 (LSD ahead; top_freq below the bar).
  double dtsort_top_freq = 0.45;
  double dtsort_distinct_ratio = 0.05;
  // Moderate-duplicate tier, consulted only after the digit-skew rule: a
  // top key above ~20% (Zipf s >= ~1.5) is worth a heavy bucket even on
  // 32-bit keys (BENCH_auto.json: Zipf-1.5/32 DTSort 22ms vs LSD 32ms),
  // but bitwise-skewed inputs with a moderate top key (BExp-30/32,
  // top ~34%) still belong to LSD — hence the ordering.
  double dtsort_mid_top_freq = 0.20;
  // Low-digit skew => LSD: when one byte value owns this share of the
  // sampled low digit (the BExp family), few scatter cursors are hot and
  // LSD's fixed passes beat DTSort's recursion (BENCH_suite.json BExp-10/30).
  double direct_digit_share = 0.25;
  // Keys at most this wide with no duplicate/skew signal go to LSD: at
  // gamma=8 that is <= 4 fixed passes, which beat MSD recursion on every
  // 32-bit BENCH_suite.json instance outside the duplicate regime. Wider
  // keys default to dtsort (the paper's 64-bit headline, Tab 3 right).
  int lsd_max_key_bits = 32;
  // Parallelism cap consulted by plan_parallelism(); 0 = every worker the
  // surrounding scope allows (par::effective_workers(), itself capped by
  // auto_sort_options::num_threads / sort_options::num_threads).
  int num_threads = 0;
  // n at or below this runs the chosen kernel single-threaded even when
  // more workers are available: below the crossover, fork/join setup, the
  // per-block counting matrices and the extra cache traffic of a parallel
  // distribution cost more than they save. Like every threshold here the
  // default is fitted to the committed baselines (docs/TUNING.md has the
  // re-derivation recipe and the evidence); the serial/parallel decision
  // lands in sort_stats::chosen_parallelism, the kernel's twin snapshot.
  std::size_t parallel_crossover_n = std::size_t{1} << 15;
  // Wide (multi-word) keys only: equal-prefix segments at or below this
  // size finish with one stable comparison sort over the remaining words
  // instead of re-entering the radix front door (wide_sort.hpp). A
  // segment must amortise a full dispatch + distribution pass to be worth
  // radixing again; below ~2^15 records the comparison sort — run in
  // parallel ACROSS segments — wins on every wide BENCH_wide.json
  // instance.
  std::size_t wide_segment_base_case = std::size_t{1} << 15;
  // Order-statistics queries (core/order_stats.hpp) only: a rank-window
  // segment at or below this size finishes with one stable comparison
  // sort instead of another pruned distribution pass. Smaller than
  // wide_segment_base_case on purpose: a selection segment that recurses
  // gets to PRUNE most of its buckets (the next pass touches only the
  // window straddlers), so another distribution pass stays profitable on
  // segments far below the size where a full-sort refinement would give
  // up — the query-topk bench family is the evidence, same recipe as
  // every threshold here (docs/TUNING.md).
  std::size_t select_base_case = std::size_t{1} << 11;

  // The decision tree. `disallow` is a bitmask of sort_kernel values the
  // caller has ruled out (the dispatcher uses it when a cheap-branch
  // precondition fails its exact confirmation, e.g. the input was not
  // near-sorted after all).
  [[nodiscard]] kernel_plan choose(const input_sketch& s,
                                   unsigned disallow = 0) const {
    const auto allowed = [&](sort_kernel k) {
      return ((disallow >> static_cast<int>(k)) & 1U) == 0;
    };
    kernel_plan p;
    if (s.n <= serial_threshold && allowed(sort_kernel::std_sort)) {
      p.kernel = sort_kernel::std_sort;
      p.reason = "n below serial threshold";
    } else if (memory_budget_bytes != 0 && s.record_bytes != 0 &&
               (s.pure_key_records ||
                stability_mode == stability::relaxed) &&
               s.n * s.record_bytes > memory_budget_bytes &&
               allowed(sort_kernel::inplace)) {
      // The budget rule outranks every data-driven rule below: when the
      // O(n) ping-pong lease is off the table, only the in-place kernel
      // fits, and it is safe here (pure keys or an explicit relaxed
      // contract).
      p.kernel = sort_kernel::inplace;
      p.reason = "ping-pong lease exceeds memory budget";
    } else if ((s.maybe_sorted() || s.maybe_reverse_sorted()) &&
               allowed(sort_kernel::run_merge)) {
      p.kernel = sort_kernel::run_merge;
      p.reason = s.maybe_sorted() ? "no sampled adjacent pair descends"
                                  : "no sampled adjacent pair ascends";
    } else if (s.sample_range() <= counting_max_range &&
               allowed(sort_kernel::counting)) {
      p.kernel = sort_kernel::counting;
      p.reason = "sampled key range fits one counting pass";
    } else if ((s.top_freq() >= dtsort_top_freq ||
                s.distinct_ratio() <= dtsort_distinct_ratio) &&
               allowed(sort_kernel::dtsort)) {
      p.kernel = sort_kernel::dtsort;
      p.reason = "heavy duplicates (Thm 4.6/4.7 regime)";
    } else if (s.digit_top_share() >= direct_digit_share &&
               allowed(sort_kernel::lsd)) {
      p.kernel = sort_kernel::lsd;
      p.reason = "bitwise-skewed digits: LSD";
    } else if (s.top_freq() >= dtsort_mid_top_freq &&
               allowed(sort_kernel::dtsort)) {
      p.kernel = sort_kernel::dtsort;
      p.reason = "moderate heavy key: worth a heavy bucket";
    } else if (s.key_bits <= lsd_max_key_bits && allowed(sort_kernel::lsd)) {
      p.kernel = sort_kernel::lsd;
      p.reason = "small dense keys: few fixed LSD passes";
    } else if (allowed(sort_kernel::dtsort)) {
      p.kernel = sort_kernel::dtsort;
      p.reason = "wide keys: DTSort default";
    } else {
      p.kernel = sort_kernel::lsd;  // dtsort ruled out: lsd handles anything
      p.reason = "fallback";
    }
    tune(p, s);
    return p;
  }

  // Sketch-driven parameter tuning, applied to chosen and forced kernels
  // alike (so policy::always benchmarks measure the kernel the dispatcher
  // would actually run).
  void tune(kernel_plan& p, const input_sketch& s) const {
    if (p.kernel == sort_kernel::lsd) p.gamma = 8;
    p.parallelism =
        p.kernel == sort_kernel::std_sort ? 1 : plan_parallelism(s.n);
  }

  // The serial/parallel half of the dispatch: how many workers should a
  // sort of n records run under? 1 below the crossover (or for std_sort,
  // which is sequential regardless), else every worker the scope allows,
  // capped by this policy's num_threads.
  [[nodiscard]] int plan_parallelism(std::size_t n) const {
    if (n <= parallel_crossover_n) return 1;
    int avail = par::effective_workers();
    if (num_threads > 0 && num_threads < avail) avail = num_threads;
    return avail;
  }

  [[nodiscard]] std::size_t max_merge_runs(std::size_t n) const {
    if (run_merge_max_runs != 0) return run_merge_max_runs;
    return std::max<std::size_t>(
        64, 4 * static_cast<std::size_t>(
                    ceil_log2(std::max<std::size_t>(2, n))));
  }
};

namespace policy {

// The default data-driven routing.
inline dispatch_policy automatic() { return {}; }

// Pin a kernel, bypassing the decision tree (sketch-driven parameter
// tuning still applies). Precondition for always(counting): the exact key
// range (max - min) must be below 2^20, else dovetail::sort throws
// std::invalid_argument — a forced one-pass counting sort over a wider
// range would need an infeasibly large counting matrix.
inline dispatch_policy always(sort_kernel k) {
  dispatch_policy p;
  p.forced = true;
  p.forced_kernel = k;
  return p;
}

}  // namespace policy

// Options for dovetail::sort. The workspace/stats contract matches
// dovetail_sort: pass the same sort_workspace to repeated calls and every
// kernel's O(n) scratch is reused after warm-up; one in-flight sort per
// workspace.
struct auto_sort_options {
  dispatch_policy policy{};
  sketch_options sketch{};                // sample/probe budget and seed
  std::uint64_t seed = 42;                // dtsort kernel determinism seed
  // Per-call parallelism cap, same contract as sort_options::num_threads:
  // 0 = all scheduler workers; 1 = run the whole call on the calling
  // thread (exact); 2..p caps forking/granularity decisions while actual
  // concurrency stays bounded by the shared pool. Applied for the entire
  // call — sketch, dispatch, kernel, gather passes — and composes with
  // policy.num_threads and dispatch_policy::parallel_crossover_n (the
  // dispatcher may still choose FEWER workers than allowed; the choice is
  // recorded in sort_stats::chosen_parallelism).
  int num_threads = 0;
  sort_workspace* workspace = nullptr;
  // Workspace pool for concurrent in-flight sub-sorts (today: the wide-key
  // refine driver sorting large equal-prefix segments concurrently).
  // nullptr = workspace_pool::shared(), the process-wide default.
  workspace_pool* pool = nullptr;
  sort_stats* stats = nullptr;
};

namespace detail {

// Hard feasibility cap for a forced counting kernel (policy::always).
inline constexpr std::uint64_t kCountingHardCap = std::uint64_t{1} << 20;

// Boundaries of maximal non-decreasing runs: positions i with
// key(a[i-1]) > key(a[i]), bracketed by 0 and n.
template <typename Rec, typename KeyFn>
std::vector<std::size_t> run_boundaries(std::span<const Rec> a,
                                        const KeyFn& key) {
  const std::size_t n = a.size();
  std::vector<std::size_t> bounds{0};
  if (n >= 2) {
    const std::size_t nblocks =
        n <= 8192 ? 1
                  : std::min<std::size_t>(
                        8 * static_cast<std::size_t>(par::num_workers()),
                        (n + 8191) / 8192);
    const std::size_t bsize = (n + nblocks - 1) / nblocks;
    std::vector<std::vector<std::size_t>> local(nblocks);
    par::parallel_for(
        0, nblocks,
        [&](std::size_t b) {
          const std::size_t lo = std::max<std::size_t>(1, b * bsize);
          const std::size_t hi = std::min(n, (b + 1) * bsize);
          for (std::size_t i = lo; i < hi; ++i)
            if (static_cast<std::uint64_t>(key(a[i - 1])) >
                static_cast<std::uint64_t>(key(a[i])))
              local[b].push_back(i);
        },
        1);
    for (const auto& v : local)
      bounds.insert(bounds.end(), v.begin(), v.end());
  }
  bounds.push_back(n);
  return bounds;
}

// Bottom-up pairwise merging of the runs delimited by `bounds`, ping-pong
// between `a` and scratch `t`; the sorted result always ends in `a`.
template <typename Rec, typename KeyFn>
void merge_runs(std::span<Rec> a, const KeyFn& key, std::span<Rec> t,
                std::vector<std::size_t> bounds) {
  const auto comp = [&](const Rec& x, const Rec& y) {
    return static_cast<std::uint64_t>(key(x)) <
           static_cast<std::uint64_t>(key(y));
  };
  std::span<Rec> src = a, dst = t;
  while (bounds.size() > 2) {
    const std::size_t nr = bounds.size() - 1;
    par::parallel_for(
        0, nr / 2,
        [&](std::size_t i) {
          const std::size_t lo = bounds[2 * i], mid = bounds[2 * i + 1],
                            hi = bounds[2 * i + 2];
          par::merge(std::span<const Rec>(src.data() + lo, mid - lo),
                     std::span<const Rec>(src.data() + mid, hi - mid),
                     dst.subspan(lo, hi - lo), comp);
        },
        1);
    if (nr % 2 != 0) {  // odd run out: carry it over unchanged
      const std::size_t lo = bounds[nr - 1], hi = bounds[nr];
      par::copy(std::span<const Rec>(src.data() + lo, hi - lo),
                dst.subspan(lo, hi - lo));
    }
    std::vector<std::size_t> next;
    next.reserve(nr / 2 + 2);
    for (std::size_t i = 0; i < bounds.size(); i += 2) next.push_back(bounds[i]);
    if (next.back() != bounds.back()) next.push_back(bounds.back());
    bounds = std::move(next);
    std::swap(src, dst);
  }
  if (src.data() != a.data())
    par::copy(std::span<const Rec>(src.data(), a.size()), a);
}

// One stable counting-sort pass over the exact key range [min_key, max_key].
template <typename Rec, typename KeyFn>
void counting_kernel(std::span<Rec> data, const KeyFn& key,
                     std::uint64_t min_key, std::uint64_t max_key,
                     sort_workspace& ws, sort_stats* stats) {
  const std::size_t n = data.size();
  const std::size_t buckets =
      static_cast<std::size_t>(max_key - min_key) + 1;
  std::span<Rec> t = ws.template record_buffer<Rec>(n, stats);
  sort_workspace::lease off_lease =
      ws.acquire((buckets + 1) * sizeof(std::size_t), stats);
  const std::span<std::size_t> offs =
      off_lease.template carve<std::size_t>(buckets + 1);
  distribute_options dopt;
  dopt.require_stable = true;
  dopt.workspace = &ws;
  dopt.stats = stats;
  distribute(std::span<const Rec>(data.data(), n), t, buckets,
             [&](const Rec& r) -> std::size_t {
               return static_cast<std::size_t>(
                   static_cast<std::uint64_t>(key(r)) - min_key);
             },
             offs, dopt);
  par::copy(std::span<const Rec>(t.data(), n), data);
  if (stats != nullptr) {
    stats->distributed_records.fetch_add(n, std::memory_order_relaxed);
    stats->num_distributions.fetch_add(1, std::memory_order_relaxed);
  }
}

// Exact (min, max) of the keys — one parallel reduce pass. Only run when a
// branch's precondition needs confirming; the sketch pays o(n) everywhere
// else.
template <typename Rec, typename KeyFn>
std::pair<std::uint64_t, std::uint64_t> exact_key_range(
    std::span<const Rec> data, const KeyFn& key) {
  using mm = std::pair<std::uint64_t, std::uint64_t>;
  return par::reduce_map(
      0, data.size(),
      mm{~std::uint64_t{0}, 0},
      [&](std::size_t i) {
        const auto k = static_cast<std::uint64_t>(key(data[i]));
        return mm{k, k};
      },
      [](mm x, mm y) {
        return mm{std::min(x.first, y.first), std::max(x.second, y.second)};
      });
}

// The scope of one front-door call: the per-call worker cap (exact at 1 —
// nothing below it forks) and the workspace every lease comes from, the
// caller's or a local one. `opt` is the caller's options with that
// workspace filled in; the cap lands in sort_stats::effective_workers.
struct call_scope {
  explicit call_scope(const auto_sort_options& o)
      : cap(o.num_threads), opt(o) {
    if (opt.workspace == nullptr) opt.workspace = &local_ws;
    if (opt.stats != nullptr)
      opt.stats->effective_workers.store(
          static_cast<std::uint64_t>(par::effective_workers()),
          std::memory_order_relaxed);
  }
  [[nodiscard]] sort_workspace& ws() const { return *opt.workspace; }

  par::scoped_worker_limit cap;
  sort_workspace local_ws;
  auto_sort_options opt;
};

// The dispatch core: sketch, route, run. `key` must return an unsigned
// integer here — the public entry points below fold any other key type
// through its key_codec before reaching this.
template <typename Rec, typename KeyFn>
sort_kernel sort_unsigned(std::span<Rec> data, const KeyFn& key,
                          const auto_sort_options& opt) {
  static_assert(radix_record<Rec>,
                "dovetail::sort requires records satisfying radix_record "
                "(util/record.hpp)");
  sort_stats* st = opt.stats;
  const std::size_t n = data.size();

  // The per-call cap bounds everything below — sketch, confirmation scans,
  // kernel — and is what dispatch_policy::plan_parallelism() sees as the
  // available worker count.
  const call_scope scope(opt);
  sort_workspace& ws = scope.ws();

  input_sketch sk =
      sketch_input(std::span<const Rec>(data.data(), n), key, opt.sketch);
  // Type-level facts the sampling pass cannot know: the record footprint
  // (drives the memory-budget rule) and whether equal encoded keys imply
  // byte-identical records (makes the unstable in-place kernel safe).
  sk.record_bytes = sizeof(Rec);
  sk.pure_key_records = is_pure_key_fn_v<KeyFn>;
  if (st != nullptr) {
    const auto permille = [](std::size_t part, std::size_t whole) {
      return whole == 0 ? std::uint64_t{0}
                        : static_cast<std::uint64_t>(1000 * part / whole);
    };
    st->sketch_key_bits.store(static_cast<std::uint64_t>(sk.key_bits),
                              std::memory_order_relaxed);
    st->sketch_distinct_permille.store(
        permille(sk.distinct_samples, sk.num_samples),
        std::memory_order_relaxed);
    st->sketch_top_permille.store(permille(sk.top_count, sk.num_samples),
                                  std::memory_order_relaxed);
    st->sketch_desc_permille.store(permille(sk.desc_probes, sk.probes),
                                   std::memory_order_relaxed);
    st->sketch_heavy_keys.store(sk.heavy_keys, std::memory_order_relaxed);
    st->sketch_runs.store(0, std::memory_order_relaxed);
  }

  const auto record_choice = [&](const kernel_plan& p) {
    if (st != nullptr) {
      st->chosen_kernel.store(1 + static_cast<std::uint64_t>(p.kernel),
                              std::memory_order_relaxed);
      st->chosen_parallelism.store(static_cast<std::uint64_t>(p.parallelism),
                                   std::memory_order_relaxed);
    }
  };

  unsigned disallow = 0;
  for (;;) {
    kernel_plan plan;
    if (opt.policy.forced) {
      plan.kernel = opt.policy.forced_kernel;
      opt.policy.tune(plan, sk);
    } else {
      plan = opt.policy.choose(sk, disallow);
    }
    // Below the crossover the plan says "serial": cap the kernel (and its
    // confirmation scans) to one worker so the decision is enforced, not
    // advisory. The cap composes with worker_cap above by taking the min.
    const par::scoped_worker_limit plan_cap(plan.parallelism);

    switch (plan.kernel) {
      case sort_kernel::std_sort: {
        record_choice(plan);
        std::stable_sort(data.begin(), data.end(),
                         [&](const Rec& x, const Rec& y) {
                           return static_cast<std::uint64_t>(key(x)) <
                                  static_cast<std::uint64_t>(key(y));
                         });
        return plan.kernel;
      }

      case sort_kernel::run_merge: {
        std::vector<std::size_t> bounds = detail::run_boundaries(
            std::span<const Rec>(data.data(), n), key);
        std::size_t runs = bounds.size() - 1;
        if (n >= 2 && runs == n) {
          // Every adjacent pair descends: the input is strictly
          // descending, so no equal keys exist and a wholesale reversal
          // is trivially stable — and leaves exactly one run.
          par::reverse_inplace(data);
          bounds = {0, n};
          runs = 1;
        }
        if (st != nullptr)
          st->sketch_runs.store(runs, std::memory_order_relaxed);
        if (!opt.policy.forced && runs > opt.policy.max_merge_runs(n)) {
          // The probes lied (descents exist but were all missed, or the
          // reversal bailed): rule the branch out and re-dispatch.
          disallow |= 1U << static_cast<int>(sort_kernel::run_merge);
          continue;
        }
        record_choice(plan);
        if (runs > 1) {
          std::span<Rec> t = ws.template record_buffer<Rec>(n, st);
          detail::merge_runs(data, key, t, std::move(bounds));
        }
        return plan.kernel;
      }

      case sort_kernel::counting: {
        const auto [min_key, max_key] = detail::exact_key_range(
            std::span<const Rec>(data.data(), n), key);
        const std::uint64_t range =
            n == 0 ? 0 : max_key - min_key;
        if (opt.policy.forced) {
          if (range >= detail::kCountingHardCap)
            throw std::invalid_argument(
                "dovetail::sort: policy::always(counting) needs an exact "
                "key range below 2^20");
        } else if (range > opt.policy.counting_max_range) {
          // Rare keys above the sampled range (the overflow phenomenon of
          // Sec 5) made the estimate optimistic: re-dispatch without the
          // counting branch.
          disallow |= 1U << static_cast<int>(sort_kernel::counting);
          continue;
        }
        record_choice(plan);
        if (n >= 2 && range > 0)
          detail::counting_kernel(data, key, min_key, max_key, ws, st);
        return plan.kernel;
      }

      case sort_kernel::lsd: {
        record_choice(plan);
        baseline::lsd_options lopt;
        if (plan.gamma > 0) lopt.gamma = plan.gamma;
        lopt.workspace = &ws;
        lopt.stats = st;
        baseline::lsd_radix_sort(data, key, lopt);
        return plan.kernel;
      }

      case sort_kernel::dtsort: {
        record_choice(plan);
        sort_options dopt;
        dopt.gamma = plan.gamma;  // 0 = dovetail_sort's own auto choice
        dopt.seed = opt.seed;
        dopt.workspace = &ws;
        dopt.stats = st;
        dovetail_sort(data, key, dopt);
        return plan.kernel;
      }

      case sort_kernel::inplace: {
        // Unstable kernel: reachable only when instability is unobservable
        // (pure-key records) or explicitly permitted. The auto rule already
        // guarantees this; a pinned policy::always(inplace) must prove it
        // here.
        if (!sk.pure_key_records &&
            opt.policy.stability_mode != stability::relaxed)
          throw std::invalid_argument(
              "dovetail::sort: policy::always(inplace) on records that "
              "carry payload needs dispatch_policy::stability_mode = "
              "stability::relaxed (the kernel is unstable)");
        record_choice(plan);
        inplace_sort_options iopt;
        if (plan.gamma > 0) iopt.gamma = plan.gamma;
        iopt.workspace = &ws;
        iopt.stats = st;
        inplace_sort(data, key, iopt);
        return plan.kernel;
      }
    }
    throw std::invalid_argument("dovetail::sort: unknown kernel");
  }
}

// --- the key plan ----------------------------------------------------------
//
// How every typed entry point reaches the radix drivers. One decision
// (fused_key_plan) and one route:
//
//   key(record) ──► fused?  ──yes──► the driver reads encoded words from
//                     │             the records themselves; records are
//                     │             scattered as-is, never decoded
//                     no
//                     ▼
//   permutation_route: call_scope ─► encoded_records (words + index)
//                      ─► driver ─► sink(permutation)
//
// The drivers are sort_driver (below) and order_stats.hpp's select
// driver; the sinks are gather_into (one gather of the caller's arrays)
// and rank's index output. sort_by_key, rank and group_by's fingerprint
// always take the route: they need the permutation itself.

// Snapshot the entry-point/codec stats fields (last write wins, matching
// chosen_kernel's contract).
inline void note_entry(sort_stats* st, sort_entry entry, codec_kind kind,
                       int encoded_bits) {
  if (st == nullptr) return;
  st->entry_point.store(1 + static_cast<std::uint64_t>(entry),
                        std::memory_order_relaxed);
  st->codec_kind_id.store(1 + static_cast<std::uint64_t>(kind),
                          std::memory_order_relaxed);
  st->codec_encoded_bits.store(static_cast<std::uint64_t>(encoded_bits),
                               std::memory_order_relaxed);
}

// The key plan's one decision: a cheap codec on radix records FUSES the
// encode into every key access; anything else — an expensive codec, or a
// record the radix kernels cannot scatter (e.g. a std::string member) —
// takes the permutation route.
template <typename Rec, typename K>
inline constexpr bool fused_key_plan =
    radix_record<Rec> && wide_key_traits<K>::cheap;

// One record of the permutation route: every encoded word of a key plus
// its input index. u32 words when a single-word key fits 32 bits and every
// index does too — half the bytes per scatter pass.
template <typename Word, std::size_t W>
struct encoded_record {
  Word word[W];
  Word idx;
};

// The one record builder: lease n encoded_records and fill them from
// key_at(i) — one sequential read of each key, after which the driver's
// passes and the word half of every comparison run over a cache-resident
// array (the true key is touched again only by a prefix codec's tie-break
// and by the final gather).
template <typename WT, typename Rec, typename KeyAt>
[[nodiscard]] sort_workspace::lease encoded_records(std::size_t n,
                                                    const KeyAt& key_at,
                                                    sort_workspace& ws,
                                                    sort_stats* st,
                                                    std::span<Rec>& out) {
  sort_workspace::lease lease = ws.acquire_array<Rec>(n, out, st);
  par::parallel_for(0, n, [&](std::size_t i) {
    auto&& k = key_at(i);
    for (std::size_t w = 0; w < WT::word_count; ++w)
      out[i].word[w] = static_cast<decltype(out[i].idx)>(WT::word(k, w));
    out[i].idx = static_cast<decltype(out[i].idx)>(i);
  });
  return lease;
}

// n elements of T, backed by a workspace lease when T is a radix_record
// (warm calls: zero allocations) and by a plain vector otherwise (T must
// then be default-constructible and copy-assignable).
template <typename T>
class scratch_array {
 public:
  scratch_array(std::size_t n, sort_workspace& ws, sort_stats* stats) {
    if constexpr (radix_record<T> && alignof(T) <= detail::kSlabAlign) {
      lease_ = ws.acquire(n * sizeof(T), stats);
      span_ = lease_.template carve<T>(n);
    } else {
      vec_.resize(n);
      span_ = std::span<T>(vec_);
    }
  }
  [[nodiscard]] std::span<T> get() noexcept { return span_; }

 private:
  sort_workspace::lease lease_;
  std::vector<T> vec_;
  std::span<T> span_;
};

// Copy (or move, for types that are not radix records) scratch back into
// the caller's array.
template <typename T>
void write_back(std::span<T> from, std::span<T> to) {
  if constexpr (radix_record<T>) {
    par::copy(std::span<const T>(from.data(), from.size()), to);
  } else {
    par::parallel_for(0, from.size(),
                      [&](std::size_t i) { to[i] = std::move(from[i]); });
  }
}

// The one gather: a sink that applies the permutation to every array in
// one pass — move each source into leased scratch, then write the scratch
// back. Moving is safe: every source index is consumed exactly once and
// every slot is overwritten afterwards, so a std::string never pays a heap
// copy for being sorted. Each gather counts in
// sort_stats::encode_once_calls.
template <typename... T>
auto gather_into(sort_stats* st, std::span<T>... arrays) {
  return [st, arrays...](const auto& src_at, sort_workspace& ws) {
    if (st != nullptr)
      st->encode_once_calls.fetch_add(1, std::memory_order_relaxed);
    const std::size_t n = std::min({arrays.size()...});
    std::tuple<scratch_array<T>...> scratch{scratch_array<T>(n, ws, st)...};
    std::apply(
        [&](scratch_array<T>&... tmp) {
          par::parallel_for(0, n, [&](std::size_t pos) {
            const std::size_t src = src_at(pos);
            ((tmp.get()[pos] = std::move(arrays[src])), ...);
          });
          (write_back(tmp.get(), arrays), ...);
        },
        scratch);
  };
}

// The sort driver for a wide key: word 0 through the adaptive front door
// (sort_unsigned keyed on word_of), then wide_sort.hpp's segmented refine
// rounds — with the continuation hooks when the codec has the offset form
// — returning the word-0 dispatch's kernel. word_of(rec, w) is word w of a
// record's key, key_of(rec) its true key, and reencode(segment, offset)
// repoints the word source of a continuing segment. Shared by the fused
// wide sort and the permutation route.
template <typename WT, typename Rec, typename WordOf, typename KeyOf,
          typename Reencode>
sort_kernel refine_through_front_door(std::span<Rec> data,
                                      const WordOf& word_of,
                                      const KeyOf& key_of,
                                      const Reencode& reencode,
                                      const auto_sort_options& opt,
                                      sort_workspace& ws) {
  sort_kernel root = sort_kernel::std_sort;
  bool first = true;
  // chosen_kernel and the sketch_* fields are last-write-wins snapshots,
  // so the per-segment dispatches of later rounds would leave them
  // describing the LAST refined segment. The wide contract is that they
  // describe the ROOT (word-0, whole-input) dispatch — the kernel this
  // function returns — so the word-0 values are captured here and
  // restored after the refine rounds.
  std::atomic<std::uint64_t> sort_stats::*const snap_fields[] = {
      &sort_stats::chosen_kernel,          &sort_stats::sketch_key_bits,
      &sort_stats::sketch_distinct_permille, &sort_stats::sketch_top_permille,
      &sort_stats::sketch_desc_permille,   &sort_stats::sketch_heavy_keys,
      &sort_stats::sketch_runs,            &sort_stats::chosen_parallelism,
      &sort_stats::effective_workers};
  constexpr std::size_t kNumSnap = std::size(snap_fields);
  std::uint64_t snap[kNumSnap] = {};
  const auto sort_seg = [&](std::span<Rec> seg, std::size_t w,
                            sort_workspace& seg_ws) {
    auto_sort_options seg_opt = opt;
    seg_opt.workspace = &seg_ws;
    const sort_kernel k = sort_unsigned(
        seg, [&word_of, w](const Rec& r) { return word_of(r, w); }, seg_opt);
    if (first) {
      root = k;
      first = false;
      if (opt.stats != nullptr)
        for (std::size_t f = 0; f < kNumSnap; ++f)
          snap[f] = (opt.stats->*snap_fields[f])
                        .load(std::memory_order_relaxed);
    }
  };
  const auto tie = true_key_less<WT>(key_of);
  // Pool for the concurrent large-segment sorts: the caller's, else the
  // process-wide shared pool.
  wide_refine(data, WT::word_count, WT::exhaustive,
              opt.policy.wide_segment_base_case, word_of, sort_seg, tie, ws,
              opt.pool != nullptr ? *opt.pool : workspace_pool::shared(),
              opt.stats, continuation_hooks_for<WT, Rec>(key_of, reencode));
  if (opt.stats != nullptr && !first)
    for (std::size_t f = 0; f < kNumSnap; ++f)
      (opt.stats->*snap_fields[f]).store(snap[f],
                                         std::memory_order_relaxed);
  return root;
}

// The sort driver of the permutation route: one sort_unsigned call for a
// single-word key, the refine driver for a wide one. Its continuation
// rounds rewrite the materialized words from the true keys at the chosen
// offset — one parallel pass per segment, after which every word read is
// back to a cache-resident record.
template <typename K>
struct sort_driver {
  template <typename Rec, typename KeyOf>
  sort_kernel operator()(std::span<Rec> recs, const KeyOf& key_of,
                         const auto_sort_options& opt,
                         sort_workspace& ws) const {
    using WT = wide_key_traits<K>;
    if constexpr (WT::word_count == 1) {
      (void)key_of;
      (void)ws;
      return sort_unsigned(recs, [](const Rec& r) { return r.word[0]; },
                           opt);
    } else {
      return refine_through_front_door<WT>(
          recs, [](const Rec& r, std::size_t w) { return r.word[w]; },
          key_of,
          [&key_of](std::span<Rec> seg, std::size_t off) {
            par::parallel_for(0, seg.size(), [&](std::size_t i) {
              auto&& k = key_of(seg[i]);
              for (std::size_t w = 0; w < WT::continuation_words; ++w)
                seg[i].word[w] = WT::word_at(k, w, off);
            });
          },
          opt, ws);
    }
  }
};

// Run `drive` on encoded records of type Rec and hand the permutation to
// `sink` — the body of permutation_route once the word type is chosen.
template <typename Rec, typename WT, typename KeyAt, typename Drive,
          typename Sink>
auto permute_encoded(std::size_t n, const KeyAt& key_at,
                     const call_scope& scope, const Drive& drive,
                     const Sink& sink) {
  std::span<Rec> recs;
  const sort_workspace::lease lease =
      encoded_records<WT>(n, key_at, scope.ws(), scope.opt.stats, recs);
  const auto key_of = [&key_at](const Rec& r) -> decltype(auto) {
    return key_at(static_cast<std::size_t>(r.idx));
  };
  const auto src_at = [recs](std::size_t pos) {
    return static_cast<std::size_t>(recs[pos].idx);
  };
  if constexpr (std::is_void_v<decltype(drive(recs, key_of, scope.opt,
                                              scope.ws()))>) {
    drive(recs, key_of, scope.opt, scope.ws());
    sink(src_at, scope.ws());
  } else {
    const auto result = drive(recs, key_of, scope.opt, scope.ws());
    sink(src_at, scope.ws());
    return result;
  }
}

// The permutation route: under one call_scope (worker cap + workspace),
// encode key_at(i) for every i in [0, n) once into encoded_records, run
// `drive(records, key_of, opt, ws)` on them — key_of(record) is the
// record's true key — and hand the resulting permutation to
// `sink(src_at, ws)`, where src_at(pos) is the input index ranking at pos.
// A stable driver on records that carry their input index IS the stable
// permutation: equal keys keep increasing indices. Returns what `drive`
// returns.
template <typename K, typename KeyAt, typename Drive, typename Sink>
auto permutation_route(std::size_t n, const KeyAt& key_at,
                       const auto_sort_options& opt, const Drive& drive,
                       const Sink& sink) {
  using WT = wide_key_traits<K>;
  const call_scope scope(opt);
  if constexpr (WT::word_count == 1 && WT::encoded_bits <= 32) {
    if (n <= 0xFFFFFFFFull)
      return permute_encoded<encoded_record<std::uint32_t, 1>, WT>(
          n, key_at, scope, drive, sink);
  }
  return permute_encoded<encoded_record<std::uint64_t, WT::word_count>, WT>(
      n, key_at, scope, drive, sink);
}

}  // namespace detail

// Sort `data` in place by `key(record)` in non-decreasing key order,
// choosing the kernel adaptively (or as pinned by opt.policy). Returns the
// kernel that ran; the same value, the sketch behind the decision, and the
// entry-point/codec snapshot are recorded in opt.stats when provided.
//
// `key` may return ANY codec-covered type (key_codec.hpp): unsigned — the
// native path — or signed integers, float/double (IEEE total order; see
// the NaN policy in key_codec.hpp), pair/tuple composites of any packed
// width, 128-bit integers, std::string/string_view (full lexicographic
// order via the wide refine driver), or a user key_codec specialization
// (single- or multi-word). Cheap codecs on radix records (util/record.hpp;
// std::pair / std::tuple members included) fuse the encoding into every
// key access (no extra pass, no extra memory); expensive codecs and other
// records (e.g. a std::string member) take the permutation route: sort
// (encoded key, index) records, then gather the records once, bumping
// sort_stats::encode_once_calls.
//
// Guarantees:
//   * Stable, whatever kernel runs (every kernel is stable; the dispatcher
//     never selects the unstable scatter).
//   * Deterministic for fixed seeds (opt.seed, opt.sketch.seed): the sketch,
//     the dispatch and every kernel are deterministic.
//   * Within a few percent of the best hand-picked kernel across the
//     BENCH_suite.json scenario matrix — measured, not promised: the
//     bench_suite "auto" family re-checks it on every run (see
//     docs/TUNING.md and the committed BENCH_auto.json).
//
// Space: O(n) extra from the workspace (the record ping-pong buffer plus
// per-pass scratch; the encode-once path adds the pair array and one
// gather buffer), except std_sort (std::stable_sort's own allocation) and
// a confirmed-sorted input on the fused path (no scratch touched at all).
//
// Throws std::invalid_argument if opt.policy forces the counting kernel on
// an input whose exact key range reaches 2^20 (see policy::always), or
// forces the in-place kernel on payload-carrying records without
// stability::relaxed.
template <typename Rec, typename KeyFn>
sort_kernel sort(std::span<Rec> data, const KeyFn& key,
                 const auto_sort_options& opt = {}) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  static_assert(
      any_sortable_key<K>,
      "dovetail::sort: the key type has no key_codec — sort by an "
      "unsigned/signed integer, float/double, a pair/tuple of those (any "
      "packed width), a 128-bit integer, std::string/string_view, or "
      "specialize dovetail::key_codec<K> (see core/key_codec.hpp)");
  using WT = wide_key_traits<K>;
  detail::note_entry(opt.stats, sort_entry::sort, WT::kind,
                     WT::encoded_bits);
  if constexpr (!detail::fused_key_plan<Rec, K>) {
    return detail::permutation_route<K>(
        data.size(),
        [&](std::size_t i) -> decltype(auto) { return key(data[i]); }, opt,
        detail::sort_driver<K>{}, detail::gather_into(opt.stats, data));
  } else if constexpr (WT::word_count > 1) {
    // Fused wide: each word pass re-derives its radix key from the record.
    // An offset codec's continuation (std::string_view records) has no
    // materialized words to refresh, so its offset lives in one shared
    // variable read by every word access: the driver writes it strictly
    // between parallel phases — the fork of the next segment sort
    // publishes the store — and every continuing segment of a round
    // shares it (the rounds are globally lockstep).
    const detail::call_scope scope(opt);
    std::size_t cont_off = 0;
    return detail::refine_through_front_door<WT>(
        data,
        [&key, &cont_off](const Rec& r, std::size_t w) {
          return WT::word_at(key(r), w, cont_off);
        },
        key, [&cont_off](std::span<Rec>, std::size_t off) { cont_off = off; },
        scope.opt, scope.ws());
  } else if constexpr (codec_traits<K>::identity) {
    // Identity codecs (unsigned keys) skip even the encode wrapper.
    return detail::sort_unsigned(data, key, opt);
  } else {
    // The named wrapper (not a lambda) keeps the purity of the inner
    // functor visible to the dispatcher: encoded_key_fn over a pure-key
    // functor is itself pure-key (is_pure_key_fn_v), which is what lets
    // plain signed/float spans use the in-place kernel.
    return detail::sort_unsigned(
        data, encoded_key_fn<typename codec_traits<K>::codec, KeyFn>{key},
        opt);
  }
}

// Convenience overload for spans of plain keys — unsigned (as before) or
// any other codec-covered type, wide keys included: sorts the values
// themselves. The key functor returns a reference so non-trivially-
// copyable keys (std::string) are never copied per key access.
template <typename K>
  requires any_sortable_key<K>
sort_kernel sort(std::span<K> data, const auto_sort_options& opt = {}) {
  // self_key (key_codec.hpp) rather than an identity lambda: the named
  // functor is recognizable as pure-key, marking these spans safe for the
  // unstable in-place kernel (equal keys are byte-identical records).
  return sort(data, self_key{}, opt);
}

// Sort parallel key/value arrays (SoA): stably sort `keys` in place by
// their codec order and apply the same permutation to `values`. The value
// bytes never ride through a radix pass — the dispatcher sorts (encoded
// key, index) pairs, then each array is gathered exactly once — so 4-byte
// keys stop dragging 32-byte rows through every scatter (the bench_suite
// codec-soa family measures the win against the equivalent AoS sort).
//
// Returns the kernel that sorted the pairs. Stable: equal keys keep their
// input order in both arrays. Workspace/stats contract as dovetail::sort;
// K/V that are radix records lease all scratch (warm calls allocate nothing),
// other types must be default-constructible + copy-assignable and use
// per-call vectors.
//
// Throws std::invalid_argument when the spans' sizes differ.
template <typename K, typename V>
sort_kernel sort_by_key(std::span<K> keys, std::span<V> values,
                        const auto_sort_options& opt = {}) {
  static_assert(any_sortable_key<K>,
                "dovetail::sort_by_key: the key type has no key_codec "
                "(see core/key_codec.hpp)");
  if (keys.size() != values.size())
    throw std::invalid_argument(
        "dovetail::sort_by_key: keys and values differ in size");
  using WT = wide_key_traits<K>;
  detail::note_entry(opt.stats, sort_entry::sort_by_key, WT::kind,
                     WT::encoded_bits);
  return detail::permutation_route<K>(
      keys.size(), [&](std::size_t i) -> const K& { return keys[i]; }, opt,
      detail::sort_driver<K>{}, detail::gather_into(opt.stats, keys, values));
}

// Stable argsort: the permutation p with data[p[0]], data[p[1]], ... in
// non-decreasing (stable) key order — computed without moving, or even
// being able to write, the records. p[i] is the input index of the record
// ranking i-th; records with equal keys keep increasing input indices.
// Accepts const and non-const spans; `key` may return any codec-covered
// type. The pair sort runs through the same adaptive dispatcher and
// workspace as dovetail::sort (the returned vector is the only per-call
// allocation on warm workspaces).
template <typename Rec, typename KeyFn>
std::vector<index_t> rank(std::span<Rec> data, const KeyFn& key,
                          const auto_sort_options& opt = {}) {
  using R = std::remove_const_t<Rec>;
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const R&>>;
  static_assert(any_sortable_key<K>,
                "dovetail::rank: the key type has no key_codec "
                "(see core/key_codec.hpp)");
  using WT = wide_key_traits<K>;
  detail::note_entry(opt.stats, sort_entry::rank, WT::kind,
                     WT::encoded_bits);
  std::vector<index_t> out(data.size());
  detail::permutation_route<K>(
      data.size(),
      [&](std::size_t i) -> decltype(auto) { return key(data[i]); }, opt,
      detail::sort_driver<K>{}, [&](const auto& src_at, sort_workspace&) {
        par::parallel_for(0, out.size(),
                          [&](std::size_t i) { out[i] = src_at(i); });
      });
  return out;
}

// rank over a span of plain keys, wide keys included.
template <typename K>
  requires any_sortable_key<K>
std::vector<index_t> rank(std::span<K> data,
                          const auto_sort_options& opt = {}) {
  using P = std::remove_const_t<K>;
  return rank(data, [](const P& k) -> const P& { return k; }, opt);
}

}  // namespace dovetail
