// Semisort (Sec 2.5): reorder records so that equal keys become adjacent,
// with no ordering constraint between groups. The heavy-key sampling
// technique DTSort builds on was developed for this problem [23, 32]; in
// return, an integer sort yields a semisort directly: hash every key to a
// uniform 64-bit fingerprint and integer-sort by the fingerprint. Equal
// keys collide to one fingerprint and end up contiguous; the sampling
// machinery inside DovetailSort automatically gives heavy groups their own
// buckets, exactly as a dedicated semisort would.
//
// Hash collisions between distinct keys would merge two groups; with a
// bijective 64-bit mixer (hash64) over integer keys there are none.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/parallel/random.hpp"

namespace dovetail {

// Reorders `data` in place so records with equal key(r) are adjacent; the
// order *between* groups is arbitrary (it follows the hashed fingerprints)
// but deterministic for a fixed opt.seed.
//
// Requirements: Rec is trivially copyable; `key` returns an unsigned
// integer and is a pure function of the record.
//
// Guarantees: stable within each group (relative input order preserved);
// O(n sqrt(log n)) work, O(n) for heavily duplicated inputs — the heavy-
// key machinery gives big groups their own buckets, exactly as a dedicated
// semisort would.
//
// Space: O(n) extra, leased from a sort_workspace. Distribution runs
// through the unified engine (distribute.hpp), so opt.workspace applies
// exactly as in dovetail_sort: passing the same workspace to repeated
// semisorts reuses all O(n) scratch after warm-up (one in-flight call per
// workspace).
template <typename Rec, typename KeyFn>
void semisort(std::span<Rec> data, const KeyFn& key,
              const sort_options& opt = {}) {
  dovetail_sort(
      data,
      [&key](const Rec& r) {
        return par::hash64(static_cast<std::uint64_t>(key(r)));
      },
      opt);
}

// Group boundaries of a semisorted sequence: offsets of each run of equal
// keys, terminated by data.size().
template <typename Rec, typename KeyFn>
std::vector<std::size_t> group_offsets(std::span<const Rec> data,
                                       const KeyFn& key) {
  std::vector<std::size_t> offs;
  std::size_t i = 0;
  while (i < data.size()) {
    offs.push_back(i);
    std::size_t j = i + 1;
    while (j < data.size() && key(data[j]) == key(data[i])) ++j;
    i = j;
  }
  offs.push_back(data.size());
  return offs;
}

}  // namespace dovetail
