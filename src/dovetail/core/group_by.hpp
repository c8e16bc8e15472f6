// First-class group-by — the public face of semisort (Sec 2.5) on the
// typed front door.
//
// semisort.hpp reorders records so equal keys become adjacent, but it
// speaks raw unsigned keys and hands back a bare array; callers still
// re-derive the group structure themselves. group_by packages the whole
// query: stably co-sort a keys/values pair of arrays by ANY codec-covered
// key type (signed, float, 128-bit, strings — everything dovetail::sort
// takes), then return a grouped_view with the group offsets already
// scanned, so `for (g : view) aggregate(view.group(g))` is the entire
// caller-side loop.
//
// Two group orders:
//   * group_order::sorted (default) — groups appear in ascending codec
//     key order. The output arrays are BYTE-IDENTICAL to
//     dovetail::sort_by_key followed by an adjacency scan: the strongest
//     possible equivalence, tested per codec kind in
//     test_order_stats.cpp.
//   * group_order::fingerprint — the semisort promotion: integral keys
//     are sorted by their bijective 64-bit hash fingerprint
//     (par::hash64), which is what the paper's heavy-key machinery was
//     designed around — heavily duplicated inputs finish in O(n) because
//     big groups ride the heavy-bucket path. Group order is arbitrary
//     but deterministic; within-group order is stable. Non-integral keys
//     have no bijective fingerprint and silently take the sorted route
//     (grouping is still correct, just also ordered).
//
// Workspace/stats contract as dovetail::sort: scratch is leased, warm
// repeated calls on one workspace allocate nothing beyond the returned
// offsets vector; the query is recorded in sort_stats::query_kind as
// query_kind::group_by.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/order_stats.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/random.hpp"

namespace dovetail {

// Order of the groups in a grouped_view (within-group order is stable
// either way).
enum class group_order : std::uint8_t {
  sorted,       // ascending codec key order — identical to sort+scan
  fingerprint,  // hashed semisort order (integral keys; others -> sorted)
};

// The result of group_by: views over the caller's (now grouped) arrays
// plus the group boundary offsets. Group g occupies
// [offsets[g], offsets[g+1]) in both arrays; offsets always ends with
// the total size (empty input: offsets == {0}, num_groups() == 0).
template <typename K, typename V>
struct grouped_view {
  std::span<K> keys;
  std::span<V> values;
  std::vector<std::size_t> offsets;

  [[nodiscard]] std::size_t num_groups() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  [[nodiscard]] std::size_t group_size(std::size_t g) const {
    return offsets[g + 1] - offsets[g];
  }
  // The (shared) key of group g.
  [[nodiscard]] const K& key(std::size_t g) const {
    return keys[offsets[g]];
  }
  // The values of group g, in stable (input) order.
  [[nodiscard]] std::span<V> group(std::size_t g) const {
    return values.subspan(offsets[g], group_size(g));
  }
  [[nodiscard]] std::span<K> group_keys(std::size_t g) const {
    return keys.subspan(offsets[g], group_size(g));
  }
};

namespace detail {

// Boundaries of maximal runs of equal keys: positions i with
// keys[i-1] != keys[i], bracketed by 0 and n. The block-parallel shape of
// run_boundaries (auto_sort.hpp), with == instead of the codec order —
// grouping only needs adjacency, never a second key decode.
template <typename K>
std::vector<std::size_t> group_boundaries(std::span<const K> keys) {
  const std::size_t n = keys.size();
  if (n == 0) return {0};
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
            if (!(keys[i - 1] == keys[i])) local[b].push_back(i);
        },
        1);
    for (const auto& v : local)
      bounds.insert(bounds.end(), v.begin(), v.end());
  }
  bounds.push_back(n);
  return bounds;
}

// The fingerprint (semisort) key of an integral key: par::hash64 is a
// bijective 64-bit mixer, so distinct keys never collide and equal keys
// always do — grouping by it is exact, and the heavy-key sampling inside
// the engine gives big groups their own buckets.
struct fingerprint_key {
  template <typename K>
  std::uint64_t operator()(const K& k) const noexcept {
    return par::hash64(static_cast<std::uint64_t>(k));
  }
};

}  // namespace detail

// Group parallel key/value arrays (SoA) in place and return the grouped
// view. Stable within groups; group order per `order` (see above). The
// spans in the returned view alias the caller's arrays.
//
// Throws std::invalid_argument when the spans' sizes differ.
template <typename K, typename V>
grouped_view<K, V> group_by(std::span<K> keys, std::span<V> values,
                            const auto_sort_options& opt = {},
                            group_order order = group_order::sorted) {
  static_assert(any_sortable_key<K>,
                "dovetail::group_by: the key type has no key_codec (see "
                "core/key_codec.hpp)");
  if (keys.size() != values.size())
    throw std::invalid_argument(
        "dovetail::group_by: keys and values differ in size");
  detail::note_query(opt.stats, query_kind::group_by,
                     wide_key_traits<K>::kind,
                     wide_key_traits<K>::encoded_bits);
  if constexpr (std::integral<std::remove_cvref_t<K>>) {
    if (order == group_order::fingerprint)
      // Stable sort of the fingerprints through the permutation route,
      // one gather of both arrays.
      detail::permutation_route<std::uint64_t>(
          keys.size(),
          [&](std::size_t i) { return detail::fingerprint_key{}(keys[i]); },
          opt, detail::sort_driver<std::uint64_t>{},
          detail::gather_into(opt.stats, keys, values));
    else
      dovetail::sort_by_key(keys, values, opt);
  } else {
    (void)order;  // no bijective fingerprint: sorted is the only route
    dovetail::sort_by_key(keys, values, opt);
  }
  return grouped_view<K, V>{
      keys, values,
      detail::group_boundaries(std::span<const K>(keys.data(), keys.size()))};
}

// Keys-only overload: groups the keys themselves (the view's `values`
// alias `keys`).
template <typename K>
grouped_view<K, K> group_by(std::span<K> keys,
                            const auto_sort_options& opt = {},
                            group_order order = group_order::sorted) {
  static_assert(any_sortable_key<K>,
                "dovetail::group_by: the key type has no key_codec (see "
                "core/key_codec.hpp)");
  if constexpr (std::integral<std::remove_cvref_t<K>>) {
    // Single-array fingerprint grouping (semisort proper) is a stable
    // sort by the fingerprint.
    if (order == group_order::fingerprint)
      dovetail::sort(keys, detail::fingerprint_key{}, opt);
    else
      dovetail::sort(keys, opt);
  } else {
    (void)order;
    dovetail::sort(keys, opt);
  }
  // After the sort, whose entry snapshot would otherwise describe the
  // fingerprint key rather than K.
  detail::note_query(opt.stats, query_kind::group_by,
                     wide_key_traits<K>::kind,
                     wide_key_traits<K>::encoded_bits);
  return grouped_view<K, K>{
      keys, keys,
      detail::group_boundaries(std::span<const K>(keys.data(), keys.size()))};
}

}  // namespace dovetail
