// Duplicate-frequency analytics via sorting (a semisort-style workload,
// cf. Sec 2.5). Sorts a heavy-duplicate Zipfian stream with DovetailSort,
// then scans runs of equal keys to produce a frequency histogram — the kind
// of groupby/count kernel the paper's heavy-key machinery targets. Also
// contrasts DTSort against the plain radix baseline on this input.
//   ./build/examples/duplicate_histogram [n]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "dovetail/dovetail.hpp"

namespace gen = dovetail::gen;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                 : 10'000'000;
  std::printf("Duplicate histogram: n=%zu Zipf-1.5 keys, threads=%d\n", n,
              dovetail::par::num_workers());

  const gen::distribution d{gen::dist_kind::zipfian, 1.5, "Zipf-1.5"};
  auto keys = gen::generate_keys<std::uint64_t>(d, n);
  auto keys2 = keys;

  dovetail::timer t1;
  dovetail::dovetail_sort(std::span<std::uint64_t>(keys));
  const double dt_time = t1.seconds();

  dovetail::timer t2;
  dovetail::sort_options plain;  // plain MSD radix: no heavy-key detection
  plain.detect_heavy = false;
  dovetail::dovetail_sort(std::span<std::uint64_t>(keys2), plain);
  const double plain_time = t2.seconds();

  // Run-length scan over the sorted keys = frequency histogram.
  struct freq {
    std::uint64_t key;
    std::size_t count;
  };
  std::vector<freq> top;
  std::size_t i = 0, distinct = 0;
  while (i < keys.size()) {
    std::size_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    ++distinct;
    top.push_back({keys[i], j - i});
    i = j;
  }
  std::partial_sort(top.begin(), top.begin() + std::min<std::size_t>(5, top.size()),
                    top.end(),
                    [](const freq& a, const freq& b) { return a.count > b.count; });

  std::printf("  distinct keys: %zu\n", distinct);
  std::printf("  top-5 heavy keys (these skip DTSort's recursion):\n");
  for (std::size_t k = 0; k < std::min<std::size_t>(5, top.size()); ++k)
    std::printf("    key %016llx  count %zu (%.1f%%)\n",
                static_cast<unsigned long long>(top[k].key), top[k].count,
                100.0 * static_cast<double>(top[k].count) / static_cast<double>(n));
  std::printf("  DTSort: %.3fs | plain MSD radix: %.3fs | speedup %.2fx\n",
              dt_time, plain_time, plain_time / dt_time);
  return 0;
}
