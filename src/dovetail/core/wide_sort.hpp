// Segmented-MSD refine driver for wide (multi-word) keys — the layer that
// lifts the front door's 64-bit encoded-key ceiling.
//
// A key wider than one radix word (key_codec.hpp's multi-word form:
// pair<u64, u64>, __int128, fixed-prefix strings, >64-bit composites) is a
// lexicographic sequence of u64 words. Multi-round distribution over such
// words is the classic answer in the multicore integer-sorting literature
// (Gerbessiotis, "Integer sorting on multicores"); the paper's DTSort
// already embodies the per-word half of it — distribute on high digits,
// recurse within equal groups. This driver stacks that idea one level up:
//
//   1. Sort the whole array by word 0 through the EXISTING front door
//      (detail::sort_unsigned): the input sketch, the dispatch policy and
//      every kernel apply unchanged, per word.
//   2. Split into maximal equal-word segments. Only segments with >= 2
//      records survive; a word-0 pass that separates every key (the common
//      case for hashed high words) ends the sort right here.
//   3. Refine each segment on the next word — large segments go back
//      through the front door one at a time (each call is internally
//      parallel, and serialising them honours the one-in-flight-sort-per-
//      workspace contract of record_buffer); segments at or below
//      dispatch_policy::wide_segment_base_case finish with ONE stable
//      comparison sort over all remaining words, in parallel across
//      segments. Repeat per word.
//   4. Non-exhaustive codecs still owe the order beyond the words. An
//      OFFSET-capable codec (key_codec.hpp's continuation form — the
//      string codecs) keeps refining by radix, PARADIS/RADULS-style:
//      still-tied segments above the base case PROBE the next
//      continuation_stride-byte window of the true keys first — a window
//      every key shares is skipped with that one early-exit scan (a long
//      shared prefix walks forward one cheap scan per window, no radix
//      round), a window where the keys end while equal drops the segment
//      — and only windows where keys differ re-encode and re-enter the
//      same refinement, round after round, until every segment
//      separates, ends, or shrinks to the comparison base case. No comparison sort ever runs
//      on an above-base-case segment (sort_stats::wide_tiebreak_fallbacks
//      stays 0). Without the offset form — or under the
//      dispatch_policy::wide_continuation = false ablation — residual
//      segments get one stable comparison sort on the TRUE keys each (the
//      PR-5 tie-break). Both routes yield full lexicographic order, so
//      dovetail::sort on strings is byte-identical either way; the
//      continuation just replaces per-key long-prefix comparisons with
//      distribution passes (the wide-str-lcp bench family measures it).
//
// Stability: every pass is stable and confined to one segment, so the
// whole sort is stable. Scratch: the segment tables and the encode-once
// (encoded words, index) record array lease workspace slabs — warm calls
// allocate nothing from the workspace, continuation rounds included (they
// reuse the same tables and, on the encode-once path, rewrite the word
// array in place). The refine work lands in sort_stats as refine_rounds /
// wide_segments / wide_continuation_* / wide_tiebreak_fallbacks
// snapshots.
//
// This header is included from the bottom of auto_sort.hpp (which forward-
// declares the entry helpers defined here); including either header gives
// you both, and dovetail::sort / sort_by_key / rank accept wide keys
// transparently.
#pragma once

#include "dovetail/core/auto_sort.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/util/simd.hpp"

namespace dovetail {

namespace detail {

// A half-open segment [lo, hi) of the array being refined; the segment
// tables live in workspace slabs.
struct wide_seg {
  std::size_t lo;
  std::size_t hi;
};

// Stable sort for the comparison-finished segments: insertion sort below
// the allocation-free threshold (thousands of tiny segments finish per
// round; std::stable_sort's temporary buffer would be malloc churn),
// std::stable_sort above it — preceded by one linear sortedness scan,
// because the large residual segments of duplicate-heavy inputs are
// usually runs of EQUAL keys, already in stable order, and n comparisons
// beat n log n comparisons that all answer "false".
template <typename Rec, typename Less>
void stable_segment_sort(std::span<Rec> a, const Less& less) {
  if (a.size() <= 32) {
    // Tiniest segments first try the branchless fixed-comparator network
    // (util/simd.hpp): same stable permutation as the insertion sort,
    // byte-identical output, no data-dependent branches. The network
    // memcpy's records, hence the strict trivially-copyable gate.
    if constexpr (std::is_trivially_copyable_v<Rec>) {
      if (simd::stable_network_sort(a, less)) return;
    }
    for (std::size_t i = 1; i < a.size(); ++i) {
      Rec x = std::move(a[i]);
      std::size_t j = i;
      for (; j > 0 && less(x, a[j - 1]); --j) a[j] = std::move(a[j - 1]);
      a[j] = std::move(x);
    }
  } else {
    for (std::size_t i = 1; i < a.size(); ++i) {
      if (less(a[i], a[i - 1])) {
        std::stable_sort(a.begin(), a.end(), less);
        return;
      }
    }
  }
}

// Append the maximal runs of equal word `w` within [lo, hi) — already
// sorted by that word — that have >= 2 records to out[nout...]; returns
// the new count. Cut positions land in the workspace-leased `cut_scratch`
// (capacity >= hi - lo) via a chunked count-then-emit scan, so the hot
// zero-refinement case (word 0 separates nearly every key) costs no heap
// traffic proportional to n; the only per-call allocation is one
// O(workers) block-count vector.
template <typename Rec, typename WordOf>
std::size_t append_word_runs(std::span<const Rec> a, std::size_t lo,
                             std::size_t hi, std::size_t w,
                             const WordOf& word_of,
                             std::span<std::size_t> cut_scratch,
                             std::span<wide_seg> out, std::size_t nout) {
  const std::size_t n = hi - lo;
  std::size_t ncuts = 0;
  if (n >= 2) {
    const std::size_t nblocks =
        n <= 8192 ? 1
                  : std::min<std::size_t>(
                        8 * static_cast<std::size_t>(par::num_workers()),
                        (n + 8191) / 8192);
    const std::size_t bsize = (n + nblocks - 1) / nblocks;
    const auto block_range = [&](std::size_t b) {
      return wide_seg{lo + std::max<std::size_t>(1, b * bsize),
                      lo + std::min(n, (b + 1) * bsize)};
    };
    std::vector<std::size_t> counts(nblocks + 1, 0);
    par::parallel_for(
        0, nblocks,
        [&](std::size_t b) {
          const auto [plo, phi] = block_range(b);
          std::size_t c = 0;
          for (std::size_t p = plo; p < phi; ++p)
            if (word_of(a[p - 1], w) != word_of(a[p], w)) ++c;
          counts[b + 1] = c;
        },
        1);
    for (std::size_t b = 0; b < nblocks; ++b) counts[b + 1] += counts[b];
    par::parallel_for(
        0, nblocks,
        [&](std::size_t b) {
          const auto [plo, phi] = block_range(b);
          std::size_t at = counts[b];
          for (std::size_t p = plo; p < phi; ++p)
            if (word_of(a[p - 1], w) != word_of(a[p], w))
              cut_scratch[at++] = p;
        },
        1);
    ncuts = counts[nblocks];
  }
  std::size_t prev = lo;
  const auto flush = [&](std::size_t end) {
    if (end - prev >= 2) out[nout++] = {prev, end};
    prev = end;
  };
  for (std::size_t i = 0; i < ncuts; ++i) flush(cut_scratch[i]);
  flush(hi);
  return nout;
}

// Continuation probe: what a still-tied segment's keys look like past a
// byte offset, decided BEFORE paying a re-encode + radix round for it.
// `probe(segment, byte_offset)` compares every key's suffix at the
// offset against the segment's FIRST key's (each comparison stops at its
// own first difference, so the whole probe is one pass over the shared
// bytes) and returns:
//   cont_probe_done — every key ends while still equal: the keys are
//       identical from the offset on; stability keeps their order.
//   0 — some keys differ inside the very next window: re-encode + sort.
//   k > 0 — every key shares the next k full windows and the first
//       difference (if any) lies beyond them: the driver may jump k
//       strides forward without sorting. This is the PARADIS-style
//       skip-common-prefix walk — a 256-byte shared prefix costs ONE
//       scan of the shared bytes, not a radix round per window.
inline constexpr std::size_t cont_probe_done = static_cast<std::size_t>(-1);

// Continuation hooks — the driver-side face of the offset-codec form
// (key_codec.hpp). `probe` as above; `reencode(segment, byte_offset)`
// repoints the word source of a segment the probe decided to split
// (rewriting materialized words on the encode-once path, or just moving
// a shared offset on the fused path); `tie_from(a, b, byte_offset)` is
// the true-key order restricted to the key suffixes at byte_offset —
// continuation rounds know their segments are key-equal through the
// current offset, so small-segment finishes compare only the bytes that
// can still differ (a duplicate-heavy corpus under a 256-byte prefix
// would otherwise re-scan the whole shared prefix on every comparison).
// `stride` is the bytes a continuation window consumes and `words` how
// many words the reencode fills per round — possibly FEWER than the
// materialized prefix (the string codecs continue one 7-byte word per
// round: the probe skips tied words wholesale, so a round only ever
// sorts a word known to differ). `prefix_bytes` is where the
// materialized prefix ends, i.e. the first continuation offset. The
// no_continuation tag keeps exhaustive codecs and the tie-break ablation
// on the pre-continuation path with zero overhead.
struct no_continuation {};

template <typename Reencode, typename Probe, typename TieFrom>
struct continuation_hooks {
  std::size_t stride;
  std::size_t words;
  std::size_t prefix_bytes;
  Reencode reencode;
  Probe probe;
  TieFrom tie_from;
};
template <typename R, typename P, typename T>
continuation_hooks(std::size_t, std::size_t, std::size_t, R, P, T)
    -> continuation_hooks<R, P, T>;

// True-key suffix order expressed in codec words: walk the continuation
// windows at byte `off` until a word differs (word order = suffix byte
// order by the offset-codec contract) or both keys end while equal.
// Exactly the order tie_from owes, with no byte-level access outside the
// codec.
template <typename WT, typename K>
bool suffix_words_less(const K& a, const K& b, std::size_t off) {
  constexpr std::size_t W = WT::continuation_words;
  for (std::size_t f = 0;; ++f) {
    const std::size_t woff = off + (f / W) * WT::continuation_stride;
    const std::uint64_t wa = WT::word_at(a, f % W, woff);
    const std::uint64_t wb = WT::word_at(b, f % W, woff);
    if (wa != wb) return wa < wb;
    if (!WT::word_continues(wa)) return false;  // equal to the end
  }
}

// Byte-level probe machinery for string-view-convertible keys. The
// generic word probe below is codec-correct for ANY offset codec, but
// for strings every word_at call rebuilds a 7-byte word a byte at a
// time — ~3x the cost of a flat memcmp-style scan, and the probe's scan
// over a segment's shared bytes is the single biggest continuation cost
// under deep prefixes. These helpers walk the raw bytes 8 at a time and
// translate the first divergence back into the window arithmetic the
// driver needs.
//
// first_divergence(a, b, from, cap): smallest byte index >= from where
// the two keys diverge — differing content bytes, or the end of the
// shorter key (a strict prefix diverges where it ends) — scanning no
// further than `cap` (returns cap when tied through it), npos when the
// keys are equal. Equivalence to the codec-word view: within
// [from, min_d) contents match and neither key ends, so every 7+1 word
// there is identical with count 7; the word covering min_d differs (in
// content or in the count byte).
inline std::size_t string_first_divergence(std::string_view a,
                                           std::string_view b,
                                           std::size_t from,
                                           std::size_t cap) {
  const std::size_t lim = std::min({a.size(), b.size(), cap});
  std::size_t i = from;
  if constexpr (std::endian::native == std::endian::little) {
    while (i + 8 <= lim) {
      std::uint64_t x;
      std::uint64_t y;
      std::memcpy(&x, a.data() + i, 8);
      std::memcpy(&y, b.data() + i, 8);
      if (x != y)
        return i + static_cast<std::size_t>(std::countr_zero(x ^ y)) / 8;
      i += 8;
    }
  }
  for (; i < lim; ++i)
    if (a[i] != b[i]) return i;
  if (lim == cap) return cap;  // verified tied through the cap
  return a.size() == b.size() ? std::string_view::npos : lim;
}

// Byte-level probe: same contract as probe_tied_windows below, memcmp
// speed. Each key's scan is capped at the earliest divergence seen so
// far, so the whole probe is one pass over the segment's shared bytes.
template <typename KeyViewOf>
std::size_t probe_tied_bytes(std::size_t count, std::size_t off,
                             std::size_t stride, const KeyViewOf& key_of) {
  const std::string_view k0 = key_of(std::size_t{0});
  std::size_t min_d = std::string_view::npos;
  for (std::size_t i = 1; i < count; ++i) {
    const std::string_view ki = key_of(i);
    const std::size_t d = string_first_divergence(k0, ki, off, min_d);
    if (d < min_d) {
      min_d = d;
      // Divergence inside the very next window: the answer is already
      // "split", no later key can change it.
      if (min_d < off + stride) return 0;
    }
  }
  return min_d == std::string_view::npos ? cont_probe_done
                                         : (min_d - off) / stride;
}

// Shared probe body: flat word-by-word comparison of each key against
// the segment's first key, via `key_of(i)` (the i-th true key of the
// segment) and `word_of_at(key, word, byte_offset)`; W words per window,
// `stride` bytes per window. Each key's scan stops at its own first
// difference — and never past the earliest difference seen so far — so
// the whole probe is one pass over the segment's shared bytes. Returns
// the cont_probe contract above.
template <std::size_t W, typename KeyOf, typename WordAt,
          typename Continues>
std::size_t probe_tied_windows(std::size_t count, std::size_t off,
                               std::size_t stride, const KeyOf& key_of,
                               const WordAt& word_of_at,
                               const Continues& word_continues) {
  auto&& k0 = key_of(std::size_t{0});
  // min_f: flat index (window * W + word) of the earliest word where any
  // key differs from key 0; cont_probe_done while none found.
  std::size_t min_f = cont_probe_done;
  for (std::size_t i = 1; i < count && min_f > 0; ++i) {
    auto&& ki = key_of(i);
    for (std::size_t f = 0; f < min_f; ++f) {
      const std::size_t woff = off + (f / W) * stride;
      const std::uint64_t a = word_of_at(k0, f % W, woff);
      const std::uint64_t b = word_of_at(ki, f % W, woff);
      if (a != b) {
        min_f = f;
        break;
      }
      if (!word_continues(a)) break;  // both keys end equal inside f
    }
  }
  return min_f == cont_probe_done ? cont_probe_done : min_f / W;
}

// The driver core. `word_of(rec, w)` yields word w of a record's key;
// `sort_seg(subspan, w, ws)` stably sorts a segment by word w through the
// front door using workspace `ws` (one in-flight sort per workspace, so
// concurrent segment sorts each get their own); `tie_less` is the true-key
// order, consulted only when `exhaustive` is false. Precondition of the
// codec contract: key order implies lexicographic word order (coarsening),
// so within an equal-prefix segment tie_less alone is a refinement of
// every remaining word.
//
// `pool` enables concurrent large-segment refinement: when non-null and
// more than one worker is available, the large segments of a round are
// sorted in parallel, each in-flight sort on a workspace checked out of
// the pool (warm after the first round: zero pool-level allocation).
// nullptr serializes them through the caller's workspace — the pre-pool
// behaviour, kept for ablation and for 1-worker runs where pool arenas
// would only duplicate the caller's warm arena.
template <typename Rec, typename WordOf, typename SortSeg, typename TieLess,
          typename Cont = no_continuation>
void wide_refine(std::span<Rec> data, std::size_t word_count,
                 bool exhaustive, std::size_t base_case,
                 const WordOf& word_of, const SortSeg& sort_seg,
                 const TieLess& tie_less, sort_workspace& ws,
                 workspace_pool* pool, sort_stats* stats,
                 const Cont& cont = {}) {
  constexpr bool kContinuation =
      !std::is_same_v<std::remove_cvref_t<Cont>, no_continuation>;
  const std::size_t n = data.size();
  std::uint64_t rounds = 0;
  std::uint64_t segments = 0;
  std::uint64_t cont_rounds = 0;
  std::uint64_t cont_segments = 0;
  std::uint64_t max_offset = 0;
  std::uint64_t tiebreak_fallbacks = 0;
  const auto note = [&] {
    if (stats != nullptr) {
      stats->refine_rounds.store(rounds, std::memory_order_relaxed);
      stats->wide_segments.store(segments, std::memory_order_relaxed);
      stats->wide_continuation_rounds.store(cont_rounds,
                                            std::memory_order_relaxed);
      stats->wide_continuation_segments.store(cont_segments,
                                              std::memory_order_relaxed);
      stats->wide_max_byte_offset.store(max_offset,
                                        std::memory_order_relaxed);
      stats->wide_tiebreak_fallbacks.store(tiebreak_fallbacks,
                                           std::memory_order_relaxed);
    }
  };
  sort_seg(data, std::size_t{0}, ws);  // word 0: full front-door dispatch
  if (n < 2 || (word_count <= 1 && exhaustive)) {
    note();
    return;
  }

  // Segment tables: disjoint segments of >= 2 records, so at most n/2;
  // plus the cut-position scratch for the split scans (< n cuts).
  const std::size_t seg_cap = n / 2 + 1;
  std::span<wide_seg> cur, next;
  std::span<std::size_t> cut_scratch;
  sort_workspace::lease cur_lease =
      ws.acquire_array<wide_seg>(seg_cap, cur, stats);
  sort_workspace::lease next_lease =
      ws.acquire_array<wide_seg>(seg_cap, next, stats);
  sort_workspace::lease cut_lease =
      ws.acquire_array<std::size_t>(n, cut_scratch, stats);
  std::size_t ncur =
      append_word_runs(std::span<const Rec>(data.data(), n), 0, n, 0,
                       word_of, cut_scratch, cur, 0);

  const auto seg_granularity = [](std::size_t count) {
    return std::max<std::size_t>(
        1, count / (8 * static_cast<std::size_t>(par::num_workers())));
  };

  // Indices into `cur` of this round's above-base-case segments: at most
  // n / base_case entries, so the vector stays tiny next to the O(n)
  // workspace tables above.
  std::vector<std::size_t> large;

  // Sort every `large` segment by word w and split it on that word; the
  // surviving runs become the new `cur` table. Shared by the prefix rounds
  // and the continuation rounds — append order is identical on both
  // schedules below, so the next round's table (and therefore the output)
  // does not depend on the pool.
  const auto sort_split_large = [&](std::size_t w) {
    std::size_t nnext = 0;
    if (pool != nullptr && large.size() > 1 && par::effective_workers() > 1) {
      // Concurrent in-flight sorts, one pool workspace each (the caller's
      // `ws` cannot serve them all: one in-flight sort per workspace).
      // Each segment sort still parallelises internally — work stealing
      // balances rounds whose segments differ wildly in size. The splits
      // run as a second phase, sequential in segment order.
      par::parallel_for(
          0, large.size(),
          [&](std::size_t j) {
            const auto [lo, hi] = cur[large[j]];
            workspace_pool::handle h = pool->checkout();
            sort_seg(data.subspan(lo, hi - lo), w, *h);
          },
          1);
      for (const std::size_t i : large) {
        const auto [lo, hi] = cur[i];
        nnext = append_word_runs(std::span<const Rec>(data.data(), n), lo,
                                 hi, w, word_of, cut_scratch, next, nnext);
      }
    } else {
      // Serial: one segment at a time through the caller's warm arena,
      // splitting each immediately after its sort while its records are
      // still cache-hot (a deferred split phase re-reads the segment cold
      // — measurably slower on fat segments).
      for (const std::size_t i : large) {
        const auto [lo, hi] = cur[i];
        sort_seg(data.subspan(lo, hi - lo), w, ws);
        nnext = append_word_runs(std::span<const Rec>(data.data(), n), lo,
                                 hi, w, word_of, cut_scratch, next, nnext);
      }
    }
    std::swap(cur, next);
    ncur = nnext;
  };

  // One refinement round of the current table at word w. Small segments:
  // one stable comparison sort finishes ALL remaining words (and the
  // true-key tie-break when the codec is a prefix), in parallel across
  // segments; they never re-enter the refinement. Words are compared
  // first even for prefix codecs — word reads are a cached array access
  // on the encode-once path, while tie_less may chase a pointer into
  // variable-length key storage; the coarsening contract makes (words,
  // then tie) equal to the true key order. Large segments (at most
  // n / base_case, so the index list stays small even when the segment
  // table is huge) go back through the front door.
  const auto refine_round = [&](std::size_t w) {
    ++rounds;
    segments += ncur;
    const auto finish_less = [&](const Rec& a, const Rec& b) {
      for (std::size_t j = w; j < word_count; ++j) {
        const std::uint64_t wa = word_of(a, j);
        const std::uint64_t wb = word_of(b, j);
        if (wa != wb) return wa < wb;
      }
      return exhaustive ? false : tie_less(a, b);
    };
    par::parallel_for(
        0, ncur,
        [&](std::size_t i) {
          const auto [lo, hi] = cur[i];
          if (hi - lo <= base_case)
            stable_segment_sort(data.subspan(lo, hi - lo), finish_less);
        },
        seg_granularity(ncur));
    large.clear();
    for (std::size_t i = 0; i < ncur; ++i)
      if (cur[i].hi - cur[i].lo > base_case) large.push_back(i);
    sort_split_large(w);
  };

  for (std::size_t w = 1; w < word_count && ncur > 0; ++w) refine_round(w);

  // Residual segments are equal on every word so far. An exhaustive codec
  // is done (equal words == equal keys); a non-exhaustive codec owes the
  // order beyond the words.
  if constexpr (kContinuation) {
    // MSD continuation (the offset-codec form): keep refining by radix on
    // the next slice of the true keys, window after window. Each round:
    // still-tied segments at or below the base case finish with the
    // true-key comparison sort (their window words are all equal — only
    // tie_less can order them); larger ones are PROBED at the next
    // window first. A window every key shares costs exactly that scan:
    // segments whose keys continue past it are deferred to the next
    // offset untouched (long shared prefixes walk forward one cheap scan
    // per window, never paying a radix round that would not split
    // anything), and segments whose keys end inside it are dropped (all
    // equal, stability keeps their order). Only windows where keys
    // actually differ re-encode and re-enter the word rounds. Distinct
    // keys differ at some byte or end at different lengths, so every
    // segment eventually splits or ends: the loop terminates, and no
    // above-base-case segment ever meets a comparison sort
    // (tiebreak_fallbacks stays 0 by construction).
    std::span<wide_seg> deferred;
    sort_workspace::lease def_lease =
        ws.acquire_array<wide_seg>(seg_cap, deferred, stats);
    std::size_t offset = cont.prefix_bytes;
    while (ncur > 0) {
      std::size_t nsmall = 0;
      for (std::size_t i = 0; i < ncur; ++i)
        if (cur[i].hi - cur[i].lo <= base_case) ++nsmall;
      if (nsmall > 0) {
        ++rounds;
        segments += nsmall;
        // Every segment here is key-equal through byte `offset` (actives
        // re-enter one stride past the window they sorted; deferred
        // segments were verified tied at least that far), so the finish
        // compares suffixes only — under a long shared prefix, tie_less
        // from byte 0 would re-scan the whole prefix per comparison.
        par::parallel_for(
            0, ncur,
            [&](std::size_t i) {
              const auto [lo, hi] = cur[i];
              if (hi - lo <= base_case)
                stable_segment_sort(data.subspan(lo, hi - lo),
                                    [&](const Rec& a, const Rec& b) {
                                      return cont.tie_from(a, b, offset);
                                    });
            },
            seg_granularity(ncur));
      }
      // Probe each large segment's next window BEFORE re-encoding:
      // skip == 0 splits (sort it now), k > 0 defers k whole windows,
      // cont_probe_done drops the segment (keys equal to the end).
      std::size_t m = 0;
      std::size_t ndef = 0;
      std::size_t min_skip = cont_probe_done;
      for (std::size_t i = 0; i < ncur; ++i) {
        const auto [lo, hi] = cur[i];
        if (hi - lo <= base_case) continue;
        const std::size_t skip = cont.probe(
            std::span<const Rec>(data.data() + lo, hi - lo), offset);
        if (skip == cont_probe_done) continue;
        if (skip == 0) {
          next[m++] = cur[i];
        } else {
          deferred[ndef++] = cur[i];
          min_skip = std::min(min_skip, skip);
        }
      }
      std::swap(cur, next);
      ncur = m;
      if (m + ndef == 0) break;
      ++cont_rounds;
      cont_segments += m + ndef;
      max_offset = static_cast<std::uint64_t>(offset + cont.stride);
      if (m > 0) {
        for (std::size_t i = 0; i < ncur; ++i) {
          const auto [lo, hi] = cur[i];
          cont.reencode(data.subspan(lo, hi - lo), offset);
        }
        // The re-encoded window runs the same machinery as the prefix:
        // word 0 through the front door per segment (every survivor is
        // above the base case by construction), then the regular refine
        // rounds for the window's remaining words — none for the
        // one-word-per-round string codecs, whose probe already skipped
        // every tied word.
        ++rounds;
        segments += ncur;
        large.clear();
        for (std::size_t i = 0; i < ncur; ++i) large.push_back(i);
        sort_split_large(0);
        for (std::size_t w = 1; w < cont.words && ncur > 0; ++w)
          refine_round(w);
      }
      // Deferred segments rejoin the table for the next window's probe.
      // When every surviving segment is deferred, jump the smallest
      // verified-tied distance in one step instead of re-probing window
      // by window (a round with active segments advances one stride, so
      // actives re-enter at the very next window).
      for (std::size_t j = 0; j < ndef; ++j) cur[ncur++] = deferred[j];
      offset += cont.stride * ((m == 0 && ndef > 0) ? min_skip : 1);
    }
  } else if (ncur > 0 && !exhaustive) {
    // The comparison tie-break: segments here share their whole prefix,
    // so each is one sequential comparison sort — parallel across
    // segments only. For offset-capable codecs this is now the
    // dispatch_policy::wide_continuation = false ablation; for other
    // non-exhaustive codecs it is still the only route. Above-base-case
    // segments finished here are the degenerate case the continuation
    // exists to remove — counted so tests and benchmarks can assert the
    // continuation path reports zero.
    ++rounds;
    segments += ncur;
    for (std::size_t i = 0; i < ncur; ++i)
      if (cur[i].hi - cur[i].lo > base_case) ++tiebreak_fallbacks;
    par::parallel_for(
        0, ncur,
        [&](std::size_t i) {
          const auto [lo, hi] = cur[i];
          stable_segment_sort(data.subspan(lo, hi - lo), tie_less);
        },
        seg_granularity(ncur));
  }
  note();
}

// Run the refine driver with every segment sorted through the adaptive
// front door (sort_unsigned keyed on word_of), returning the word-0
// dispatch's kernel — the shared scaffolding of the fused and
// encode-once paths below.
template <typename Rec, typename WordOf, typename TieLess,
          typename Cont = no_continuation>
sort_kernel refine_through_front_door(std::span<Rec> data,
                                      std::size_t word_count,
                                      bool exhaustive, const WordOf& word_of,
                                      const TieLess& tie_less,
                                      const auto_sort_options& opt,
                                      sort_workspace& ws,
                                      const Cont& cont = {}) {
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
  // Pool for the concurrent large-segment sorts: the caller's, else the
  // process-wide shared pool; disabled entirely (serial pre-pool path)
  // when the policy's ablation toggle says so.
  workspace_pool* pool =
      opt.policy.parallel_wide_refine
          ? (opt.pool != nullptr ? opt.pool : &workspace_pool::shared())
          : nullptr;
  wide_refine(data, word_count, exhaustive,
              opt.policy.wide_segment_base_case, word_of, sort_seg,
              tie_less, ws, pool, opt.stats, cont);
  if (opt.stats != nullptr && !first)
    for (std::size_t f = 0; f < kNumSnap; ++f)
      (opt.stats->*snap_fields[f]).store(snap[f],
                                         std::memory_order_relaxed);
  return root;
}

// ---------------------------------------------------------------------------
// Entry helpers wired from the public front door (auto_sort.hpp forward-
// declares these and branches to them for wide key types).

// Stable sorted permutation of [0, n) under the wide keys key_at(i).
// One workspace-leased array of (ALL encoded words, index) records: every
// word is materialised up front with one sequential read of each key, so
// the refine rounds and the word half of every comparison run over a
// cache-resident array — the true key is touched again only by a prefix
// codec's tie-break and by the caller's final gather. emit(pos, src)
// receives the permutation. The shared machinery behind the wide
// sort_by_key / rank / encode-once sort paths.
template <typename K, typename KeyAt, typename Emit>
sort_kernel wide_ranked_permutation(std::size_t n, const KeyAt& key_at,
                                    const auto_sort_options& opt,
                                    sort_workspace& ws, const Emit& emit) {
  using WT = wide_key_traits<std::remove_cvref_t<K>>;
  constexpr std::size_t W = WT::word_count;
  struct wrec {
    std::uint64_t word[W];
    std::uint64_t idx;
  };
  std::span<wrec> recs;
  sort_workspace::lease rl = ws.acquire_array<wrec>(n, recs, opt.stats);
  par::parallel_for(0, n, [&](std::size_t i) {
    auto&& k = key_at(i);
    for (std::size_t w = 0; w < W; ++w) recs[i].word[w] = WT::word(k, w);
    recs[i].idx = static_cast<std::uint64_t>(i);
  });
  const auto word_of = [](const wrec& p, std::size_t w) {
    return p.word[w];
  };
  const auto tie = [&](const wrec& a, const wrec& b) {
    if constexpr (WT::exhaustive) {
      (void)a;
      (void)b;
      return false;
    } else {
      return key_at(a.idx) < key_at(b.idx);
    }
  };
  sort_kernel root = sort_kernel::std_sort;
  bool routed = false;
  if constexpr (WT::offset_encodable) {
    if (opt.policy.wide_continuation) {
      // Continuation hooks, encode-once shape: the probe walks each
      // key's suffix straight from the true keys (no store) — at memcmp
      // speed when the key reads as raw bytes, via the codec words
      // otherwise; reencode refreshes the materialized words from the
      // true keys at the chosen offset (one parallel pass per segment;
      // every later word read is back to a cache-resident array hit).
      constexpr bool kByteKeys =
          std::is_convertible_v<decltype(key_at(std::size_t{0})),
                                std::string_view>;
      const auto probe = [&](std::span<const wrec> seg,
                             std::size_t off) -> std::size_t {
        if constexpr (kByteKeys) {
          return probe_tied_bytes(
              seg.size(), off, WT::continuation_stride, [&](std::size_t i) {
                return std::string_view(
                    key_at(static_cast<std::size_t>(seg[i].idx)));
              });
        } else {
          return probe_tied_windows<WT::continuation_words>(
              seg.size(), off, WT::continuation_stride,
              [&](std::size_t i) -> decltype(auto) {
                return key_at(static_cast<std::size_t>(seg[i].idx));
              },
              [](const auto& k, std::size_t w, std::size_t o) {
                return WT::word_at(k, w, o);
              },
              [](std::uint64_t wd) { return WT::word_continues(wd); });
        }
      };
      const auto reencode = [&](std::span<wrec> seg, std::size_t off) {
        par::parallel_for(0, seg.size(), [&](std::size_t i) {
          auto&& k = key_at(static_cast<std::size_t>(seg[i].idx));
          for (std::size_t w = 0; w < WT::continuation_words; ++w)
            seg[i].word[w] = WT::word_at(k, w, off);
        });
      };
      const auto tie_from = [&](const wrec& a, const wrec& b,
                                std::size_t off) {
        if constexpr (kByteKeys) {
          // string_view order IS the codec's true order (char_traits
          // compares unsigned), restricted to the suffixes past the
          // verified-tied bytes.
          std::string_view sa(key_at(static_cast<std::size_t>(a.idx)));
          std::string_view sb(key_at(static_cast<std::size_t>(b.idx)));
          sa.remove_prefix(std::min(off, sa.size()));
          sb.remove_prefix(std::min(off, sb.size()));
          return sa < sb;
        } else {
          return suffix_words_less<WT>(
              key_at(static_cast<std::size_t>(a.idx)),
              key_at(static_cast<std::size_t>(b.idx)), off);
        }
      };
      // Materialized prefix bytes: the continuation picks up where the
      // prefix words end (bytes-per-word x word_count).
      constexpr std::size_t prefix_bytes =
          WT::continuation_stride / WT::continuation_words * W;
      root = refine_through_front_door(
          recs, W, WT::exhaustive, word_of, tie, opt, ws,
          continuation_hooks{WT::continuation_stride, WT::continuation_words,
                             prefix_bytes, reencode, probe, tie_from});
      routed = true;
    }
  }
  if (!routed)
    root = refine_through_front_door(recs, W, WT::exhaustive, word_of, tie,
                                     opt, ws);
  par::parallel_for(0, n, [&](std::size_t i) {
    emit(i, static_cast<std::size_t>(recs[i].idx));
  });
  return root;
}

template <typename Rec, typename KeyFn>
sort_kernel sort_wide(std::span<Rec> data, const KeyFn& key,
                      const auto_sort_options& opt) {
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
  using WT = wide_key_traits<K>;
  note_entry(opt.stats, sort_entry::sort, WT::kind, WT::encoded_bits);
  // The per-call cap must wrap the refine driver and the gather passes,
  // not just the per-segment sort_unsigned calls (which install their own
  // nested cap): the refine rounds run between those calls and would
  // otherwise see the full pool even under num_threads == 1.
  const par::scoped_worker_limit worker_cap(opt.num_threads);
  sort_workspace local_ws;
  sort_workspace& ws = opt.workspace != nullptr ? *opt.workspace : local_ws;
  auto_sort_options inner = opt;
  inner.workspace = &ws;
  if constexpr (radix_record<Rec> && WT::cheap && WT::offset_encodable) {
    // Fused, offset-capable (std::string_view records): there are no
    // materialized words to refresh, so the continuation offset lives in
    // one shared variable read by every word access. The driver writes it
    // (reencode) strictly between parallel phases — the fork of the next
    // segment sort publishes the store to its workers — and every
    // continuing segment of a round shares the same offset (the rounds
    // are globally lockstep), so a single variable is enough.
    std::size_t cont_off = 0;
    const auto word_of = [&key, &cont_off](const Rec& r, std::size_t w) {
      return WT::word_at(key(r), w, cont_off);
    };
    const auto tie = [&key](const Rec& a, const Rec& b) {
      return key(a) < key(b);
    };
    if (inner.policy.wide_continuation) {
      constexpr bool kByteKeys =
          std::is_convertible_v<std::invoke_result_t<const KeyFn&,
                                                     const Rec&>,
                                std::string_view>;
      const auto probe = [&key](std::span<const Rec> seg,
                                std::size_t off) -> std::size_t {
        if constexpr (kByteKeys) {
          return probe_tied_bytes(
              seg.size(), off, WT::continuation_stride,
              [&](std::size_t i) { return std::string_view(key(seg[i])); });
        } else {
          return probe_tied_windows<WT::continuation_words>(
              seg.size(), off, WT::continuation_stride,
              [&](std::size_t i) { return key(seg[i]); },
              [](const auto& k, std::size_t w, std::size_t o) {
                return WT::word_at(k, w, o);
              },
              [](std::uint64_t wd) { return WT::word_continues(wd); });
        }
      };
      const auto reencode = [&cont_off](std::span<Rec>, std::size_t off) {
        cont_off = off;
      };
      const auto tie_from = [&key](const Rec& a, const Rec& b,
                                   std::size_t off) {
        if constexpr (kByteKeys) {
          std::string_view sa(key(a));
          std::string_view sb(key(b));
          sa.remove_prefix(std::min(off, sa.size()));
          sb.remove_prefix(std::min(off, sb.size()));
          return sa < sb;
        } else {
          return suffix_words_less<WT>(key(a), key(b), off);
        }
      };
      constexpr std::size_t prefix_bytes = WT::continuation_stride /
                                           WT::continuation_words *
                                           WT::word_count;
      return refine_through_front_door(
          data, WT::word_count, WT::exhaustive, word_of, tie, inner, ws,
          continuation_hooks{WT::continuation_stride, WT::continuation_words,
                             prefix_bytes, reencode, probe, tie_from});
    }
    return refine_through_front_door(data, WT::word_count, WT::exhaustive,
                                     word_of, tie, inner, ws);
  } else if constexpr (radix_record<Rec> && WT::cheap) {
    // Fused: records are scattered as-is, each word pass re-derives its
    // radix key from the record — no extra memory beyond the front door's
    // own scratch.
    const auto word_of = [&key](const Rec& r, std::size_t w) {
      return WT::word(key(r), w);
    };
    const auto tie = [&key](const Rec& a, const Rec& b) {
      if constexpr (WT::exhaustive) {
        (void)a;
        (void)b;
        return false;
      } else {
        return key(a) < key(b);
      }
    };
    return refine_through_front_door(data, WT::word_count, WT::exhaustive,
                                     word_of, tie, inner, ws);
  } else {
    // Encode-once shape: sort (encoded words, index) records, then gather
    // once — the only route for records that are not radix records
    // (std::string members and friends). The gather MOVES each record
    // (emit is a permutation, so every source is consumed exactly once,
    // and write_back overwrites every slot afterwards) — a string never
    // pays a heap copy for being sorted.
    note_encode_once(opt.stats);
    const std::size_t n = data.size();
    scratch_array<Rec> tmp(n, ws, opt.stats);
    const std::span<Rec> t = tmp.get();
    const sort_kernel k = wide_ranked_permutation<K>(
        n,
        [&](std::size_t i) -> decltype(auto) { return key(data[i]); },
        inner, ws, [&](std::size_t pos, std::size_t src) {
          t[pos] = std::move(data[src]);
        });
    write_back(t, data);
    return k;
  }
}

template <typename K, typename V>
sort_kernel sort_by_key_wide(std::span<K> keys, std::span<V> values,
                             const auto_sort_options& opt) {
  using traits = wide_key_traits<K>;
  const std::size_t n = keys.size();
  note_entry(opt.stats, sort_entry::sort_by_key, traits::kind,
             traits::encoded_bits);
  // Same scope rationale as sort_wide: cover refine + gathers, not just
  // the nested sort_unsigned calls.
  const par::scoped_worker_limit worker_cap(opt.num_threads);
  sort_workspace local_ws;
  sort_workspace& ws = opt.workspace != nullptr ? *opt.workspace : local_ws;
  auto_sort_options inner = opt;
  inner.workspace = &ws;
  scratch_array<K> tk(n, ws, opt.stats);
  scratch_array<V> tv(n, ws, opt.stats);
  const std::span<K> sk = tk.get();
  const std::span<V> sv = tv.get();
  // The gather moves (see sort_wide): each source index is consumed once
  // and both arrays are fully overwritten by the write_back below.
  const sort_kernel k = wide_ranked_permutation<K>(
      n, [&](std::size_t i) -> const K& { return keys[i]; }, inner, ws,
      [&](std::size_t pos, std::size_t src) {
        sk[pos] = std::move(keys[src]);
        sv[pos] = std::move(values[src]);
      });
  write_back(sk, keys);
  write_back(sv, values);
  return k;
}

template <typename Rec, typename KeyFn>
std::vector<index_t> rank_wide(std::span<Rec> data, const KeyFn& key,
                               const auto_sort_options& opt) {
  using R = std::remove_const_t<Rec>;
  using K =
      std::remove_cvref_t<std::invoke_result_t<const KeyFn&, const R&>>;
  using traits = wide_key_traits<K>;
  const std::size_t n = data.size();
  note_entry(opt.stats, sort_entry::rank, traits::kind,
             traits::encoded_bits);
  // Same scope rationale as sort_wide: cover refine + gathers, not just
  // the nested sort_unsigned calls.
  const par::scoped_worker_limit worker_cap(opt.num_threads);
  sort_workspace local_ws;
  sort_workspace& ws = opt.workspace != nullptr ? *opt.workspace : local_ws;
  auto_sort_options inner = opt;
  inner.workspace = &ws;
  std::vector<index_t> out(n);
  wide_ranked_permutation<K>(
      n, [&](std::size_t i) -> decltype(auto) { return key(data[i]); },
      inner, ws, [&](std::size_t pos, std::size_t src) { out[pos] = src; });
  return out;
}

}  // namespace detail

}  // namespace dovetail
