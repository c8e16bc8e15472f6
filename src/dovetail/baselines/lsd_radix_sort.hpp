// Classic stable LSD (least-significant-digit) parallel radix sort
// (Sec 2.3): one stable distribution pass per digit, lowest digit first,
// ping-ponging between the input array and a workspace buffer.
//
// O(n * ceil(log r / γ)) work. Included as the textbook baseline the paper
// contrasts the parallel MSD framework against (MSD recursion is preferred
// in parallel because subproblems become independent).
//
// Every pass runs through the unified distribution engine (distribute.hpp)
// with its stable `direct` scatter.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "dovetail/core/distribute.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/util/bits.hpp"

namespace dovetail::baseline {

struct lsd_options {
  int gamma = 8;  // digit width in bits (256 buckets by default)
  // Ignored: every pass is stable, so `direct`. Kept because perfbench/
  // sets it.
  scatter_strategy scatter = scatter_strategy::direct;
  sort_workspace* workspace = nullptr;  // reuse across sorts; may be null
  sort_stats* stats = nullptr;          // engine counters; may be null
};

template <typename Rec, typename KeyFn>
void lsd_radix_sort(std::span<Rec> data, const KeyFn& key,
                    const lsd_options& opt = {}) {
  static_assert(std::is_trivially_copyable_v<Rec>);
  const std::size_t n = data.size();
  if (n <= 1) return;
  auto keyof = [&](const Rec& r) {
    return static_cast<std::uint64_t>(key(r));
  };
  const std::uint64_t maxk = par::reduce_map(
      0, n, std::uint64_t{0}, [&](std::size_t i) { return keyof(data[i]); },
      [](std::uint64_t x, std::uint64_t y) { return x < y ? y : x; });
  const int bits = bit_width_u64(maxk);
  if (bits == 0) return;

  const int digit = std::clamp(opt.gamma, 1, 16);
  const std::size_t zones = std::size_t{1} << digit;
  const std::uint64_t zmask = zones - 1;
  const int passes = (bits + digit - 1) / digit;

  sort_workspace local_ws;
  sort_workspace& ws = opt.workspace != nullptr ? *opt.workspace : local_ws;
  std::span<Rec> a = data;
  std::span<Rec> t = ws.record_buffer<Rec>(n, opt.stats);
  sort_workspace::lease off_lease =
      ws.acquire((zones + 1) * sizeof(std::size_t), opt.stats);
  const std::span<std::size_t> offs = off_lease.carve<std::size_t>(zones + 1);

  distribute_options dopt;
  dopt.require_stable = true;  // LSD correctness relies on stable passes
  dopt.workspace = &ws;
  dopt.stats = opt.stats;
  for (int p = 0; p < passes; ++p) {
    const int shift = p * digit;
    distribute(std::span<const Rec>(a.data(), n), t, zones,
               [&](const Rec& r) -> std::size_t {
                 return (keyof(r) >> shift) & zmask;
               },
               offs, dopt);
    std::swap(a, t);
  }
  if (a.data() != data.data())
    par::copy(std::span<const Rec>(a.data(), n), data);
}

template <typename K>
  requires std::is_unsigned_v<K>
void lsd_radix_sort(std::span<K> data, const lsd_options& opt = {}) {
  lsd_radix_sort(data, [](const K& k) { return k; }, opt);
}

}  // namespace dovetail::baseline
