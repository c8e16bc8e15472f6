// Parallel samplesort with equality buckets — the stand-in for IPS4o and
// PLSS [6, 10] in the paper's comparison (Tab 2).
//
// The property the paper contrasts integer sorts against (Sec 1, Sec 2.5)
// is that samplesort *can* exploit duplicates: a pivot value that repeats
// in the oversampled pivot set gets an "equality bucket" whose contents are
// all equal and skip the terminal sort. We implement exactly that:
//   1. oversample, sort the sample, pick b-1 pivots;
//   2. deduplicate pivots; repeated pivot values get an equality bucket;
//   3. one stable counting-sort distribution pass (classification by binary
//      search over the pivots — comparisons only);
//   4. terminal comparison sort per non-equality bucket, in parallel;
//   5. copy back.
// Stable when `stable` is set (stable distribution + stable terminal sort),
// unstable (and a bit faster) otherwise — mirroring PLSS's two variants.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "dovetail/core/counting_sort.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/parallel/sort.hpp"

namespace dovetail::baseline {

struct sample_sort_options {
  bool stable = false;            // PLSS ships both; unstable is the default
  std::size_t num_buckets = 0;    // 0 = auto
  std::size_t oversample = 24;
  std::size_t base_case = std::size_t{1} << 14;
  std::uint64_t seed = 7;
};

template <typename Rec, typename Comp>
void sample_sort(std::span<Rec> data, const Comp& comp,
                 const sample_sort_options& opt = {}) {
  static_assert(radix_record<Rec>);
  const std::size_t n = data.size();
  auto terminal = [&](std::span<Rec> s, std::span<Rec> scratch) {
    if (s.size() <= 1) return;
    if (opt.stable) {
      if (s.size() > (std::size_t{1} << 15))
        par::merge_sort(s, scratch, comp);
      else
        std::stable_sort(s.begin(), s.end(), comp);
    } else {
      if (s.size() > (std::size_t{1} << 15))
        par::quick_sort(s, comp);
      else
        std::sort(s.begin(), s.end(), comp);
    }
  };

  if (n <= opt.base_case) {
    if (opt.stable)
      std::stable_sort(data.begin(), data.end(), comp);
    else
      std::sort(data.begin(), data.end(), comp);
    return;
  }

  // ---- 1. sample and select pivots ----
  const std::size_t b =
      opt.num_buckets != 0
          ? opt.num_buckets
          : std::clamp<std::size_t>(n / opt.base_case, 2, 1024);
  const std::size_t ns = std::min(n, b * opt.oversample);
  std::vector<Rec> sample(ns);
  for (std::size_t i = 0; i < ns; ++i)
    sample[i] = data[par::rand_range(opt.seed, i, n)];
  std::sort(sample.begin(), sample.end(), comp);

  // ---- 2. deduplicate pivots; repeated values become equality buckets ----
  struct splitter {
    Rec value;
    bool eq_bucket;
  };
  std::vector<splitter> sp;
  sp.reserve(b);
  const std::size_t stride = std::max<std::size_t>(1, ns / b);
  for (std::size_t i = stride - 1; i < ns && sp.size() + 1 < b; i += stride) {
    const Rec& v = sample[i];
    if (!sp.empty() && !comp(sp.back().value, v)) {
      sp.back().eq_bucket = true;  // pivot value repeated => heavy
    } else {
      sp.push_back({v, false});
    }
  }
  const std::size_t k = sp.size();
  if (k == 0) {  // nearly constant input; one terminal sort
    std::unique_ptr<Rec[]> scratch(new Rec[n]);
    terminal(data, std::span<Rec>(scratch.get(), n));
    return;
  }

  // Bucket ids in key order: for splitter j: "less-than" bucket id_less[j],
  // then optionally the equality bucket; final catch-all "greater" bucket.
  std::vector<std::size_t> id_less(k), id_eq(k);
  std::size_t id = 0;
  for (std::size_t j = 0; j < k; ++j) {
    id_less[j] = id++;
    id_eq[j] = sp[j].eq_bucket ? id++ : static_cast<std::size_t>(-1);
  }
  const std::size_t id_greater = id++;
  const std::size_t nb = id;
  std::vector<char> is_eq(nb, 0);
  for (std::size_t j = 0; j < k; ++j)
    if (sp[j].eq_bucket) is_eq[id_eq[j]] = 1;

  auto bucket_of = [&](const Rec& r) -> std::size_t {
    // First splitter not less than r.
    std::size_t lo = 0, hi = k;
    while (lo < hi) {
      std::size_t mid = lo + (hi - lo) / 2;
      if (comp(sp[mid].value, r))
        lo = mid + 1;
      else
        hi = mid;
    }
    if (lo == k) return id_greater;
    // r <= sp[lo].value here; equal goes to the equality bucket if any.
    if (sp[lo].eq_bucket && !comp(r, sp[lo].value)) return id_eq[lo];
    return id_less[lo];
  };

  // ---- 3. distribute, 4. terminal sorts, 5. copy back ----
  std::unique_ptr<Rec[]> buf(new Rec[n]);
  std::span<Rec> t(buf.get(), n);
  const std::vector<std::size_t> offs =
      counting_sort(std::span<const Rec>(data.data(), n), t, nb, bucket_of);
  par::parallel_for(
      0, nb,
      [&](std::size_t z) {
        auto s = t.subspan(offs[z], offs[z + 1] - offs[z]);
        if (!is_eq[z]) terminal(s, data.subspan(offs[z], s.size()));
        par::copy(std::span<const Rec>(s), data.subspan(offs[z], s.size()));
      },
      1);
}

// Integer-key convenience wrapper (matching the other sorters' interface).
template <typename Rec, typename KeyFn>
void sample_sort_by_key(std::span<Rec> data, const KeyFn& key,
                        const sample_sort_options& opt = {}) {
  sample_sort(
      data, [&](const Rec& x, const Rec& y) { return key(x) < key(y); }, opt);
}

}  // namespace dovetail::baseline
