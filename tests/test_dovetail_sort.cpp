// Correctness tests for DovetailSort: sortedness, permutation, stability,
// option ablations, adversarial and degenerate inputs, both key widths,
// with and without values.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/util/record.hpp"
#include "test_util.hpp"

using dovetail::dovetail_sort;
using dovetail::kv32;
using dovetail::kv64;
using dovetail::sort_options;
namespace gen = dovetail::gen;

namespace {

// Small parameters force deep recursion even on small test inputs.
sort_options deep_options() {
  sort_options o;
  o.gamma = 4;
  o.base_case = 32;
  return o;
}

template <typename Rec>
void check_against_reference(std::vector<Rec> data, const sort_options& opt) {
  auto key = [](const Rec& r) { return r.key; };
  std::vector<Rec> ref = data;
  std::stable_sort(ref.begin(), ref.end(), [&](const Rec& a, const Rec& b) {
    return a.key < b.key;
  });
  dovetail_sort(std::span<Rec>(data), key, opt);
  ASSERT_EQ(data.size(), ref.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i].key, ref[i].key) << "at index " << i;
    ASSERT_EQ(data[i].value, ref[i].value) << "stability broken at " << i;
  }
}

}  // namespace

TEST(DovetailSort, EmptyAndTiny) {
  std::vector<std::uint32_t> v;
  dovetail_sort(std::span<std::uint32_t>(v));
  EXPECT_TRUE(v.empty());
  v = {5};
  dovetail_sort(std::span<std::uint32_t>(v));
  EXPECT_EQ(v, (std::vector<std::uint32_t>{5}));
  v = {9, 3};
  dovetail_sort(std::span<std::uint32_t>(v));
  EXPECT_EQ(v, (std::vector<std::uint32_t>{3, 9}));
}

TEST(DovetailSort, AllEqualKeysPreserveOrder) {
  std::vector<kv32> v(5000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = {42, (std::uint32_t)i};
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, AlreadySortedAndReversed) {
  std::vector<kv32> v(20000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {(std::uint32_t)i, (std::uint32_t)i};
  check_against_reference(v, deep_options());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {(std::uint32_t)(v.size() - i), (std::uint32_t)i};
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, KeysAtTypeExtremes) {
  std::vector<kv32> v;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    v.push_back({0u, 3 * i});
    v.push_back({0xFFFFFFFFu, 3 * i + 1});
    v.push_back({0x80000000u, 3 * i + 2});
  }
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, KeysAtTypeExtremes64) {
  std::vector<kv64> v;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    v.push_back({0ull, 3 * i});
    v.push_back({~0ull, 3 * i + 1});
    v.push_back({1ull << 63, 3 * i + 2});
  }
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, TwoDistinctKeysHeavy) {
  std::vector<kv32> v(40000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {i % 3 == 0 ? 7u : 123456789u, (std::uint32_t)i};
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, SingleHeavyKeyAmongUniform) {
  std::vector<kv32> v(50000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i % 2 == 0)
      v[i] = {55555u, (std::uint32_t)i};
    else
      v[i] = {(std::uint32_t)dovetail::par::hash64(i), (std::uint32_t)i};
  }
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, DefaultOptionsLargeUniform) {
  auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 1e9, "u"},
                                       200000, 3);
  check_against_reference(v, {});
}

TEST(DovetailSort, DefaultOptionsLargeZipf) {
  auto v = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.2, "z"},
                                       200000, 4);
  check_against_reference(v, {});
}

TEST(DovetailSort, DeepRecursionZipf64) {
  auto v = gen::generate_records<kv64>({gen::dist_kind::zipfian, 1.0, "z"},
                                       100000, 5);
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, BExpAdversarial32) {
  for (double t : {10.0, 100.0, 300.0}) {
    auto v = gen::generate_records<kv32>({gen::dist_kind::bexp, t, "b"},
                                         80000, 6);
    check_against_reference(v, deep_options());
  }
}

TEST(DovetailSort, BExpAdversarial64) {
  auto v = gen::generate_records<kv64>({gen::dist_kind::bexp, 50, "b"},
                                       80000, 7);
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, PlainModeNoHeavyDetection) {
  auto o = deep_options();
  o.detect_heavy = false;
  auto v = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.5, "z"},
                                       100000, 8);
  check_against_reference(v, o);
}

TEST(DovetailSort, PlMergeMode) {
  auto o = deep_options();
  o.use_dt_merge = false;
  auto v = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.5, "z"},
                                       100000, 9);
  check_against_reference(v, o);
}

TEST(DovetailSort, NoRangeDetection) {
  auto o = deep_options();
  o.skip_leading_bits = false;
  auto v = gen::generate_records<kv32>({gen::dist_kind::exponential, 10, "e"},
                                       100000, 10);
  check_against_reference(v, o);
}

TEST(DovetailSort, SmallKeyRangeUsesOverflowPath) {
  // Keys in [0, 100): leading bits skipped; a few outliers go to the
  // overflow bucket.
  std::vector<kv32> v(60000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::uint32_t k = (std::uint32_t)(dovetail::par::hash64(i) % 100);
    if (i % 9999 == 0) k = 0xFFFF0000u + (std::uint32_t)i;  // outliers
    v[i] = {k, (std::uint32_t)i};
  }
  check_against_reference(v, deep_options());
}

TEST(DovetailSort, KeysOnlyInterface) {
  auto keys = gen::generate_keys<std::uint32_t>(
      {gen::dist_kind::exponential, 5, "e"}, 150000, 11);
  auto ref = keys;
  std::sort(ref.begin(), ref.end());
  dovetail_sort(std::span<std::uint32_t>(keys));
  EXPECT_EQ(keys, ref);
}

TEST(DovetailSort, DeterministicAcrossRuns) {
  auto v1 = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.2, "z"},
                                        50000, 12);
  auto v2 = v1;
  dovetail_sort(std::span<kv32>(v1), dovetail::key_of_kv32, deep_options());
  dovetail_sort(std::span<kv32>(v2), dovetail::key_of_kv32, deep_options());
  EXPECT_TRUE(std::equal(v1.begin(), v1.end(), v2.begin()));
}

TEST(DovetailSort, GammaSweepCorrect) {
  auto base = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.0, "z"},
                                          60000, 13);
  for (int gamma : {2, 3, 5, 8, 10, 12}) {
    sort_options o;
    o.gamma = gamma;
    o.base_case = 64;
    check_against_reference(base, o);
  }
}

TEST(DovetailSort, ThetaSweepCorrect) {
  auto base = gen::generate_records<kv32>(
      {gen::dist_kind::exponential, 7, "e"}, 60000, 14);
  for (std::size_t theta : {2ul, 16ul, 256ul, 4096ul, 1ul << 16}) {
    sort_options o;
    o.gamma = 6;
    o.base_case = theta;
    check_against_reference(base, o);
  }
}

TEST(DovetailSort, SeedVariationStillCorrect) {
  auto base = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.5, "z"},
                                          60000, 15);
  for (std::uint64_t seed : {1ull, 99ull, 123456789ull}) {
    sort_options o = deep_options();
    o.seed = seed;
    check_against_reference(base, o);
  }
}

TEST(DovetailSort, OddSizesAroundPowersOfTwo) {
  for (std::size_t n :
       {31ul, 32ul, 33ul, 1023ul, 1024ul, 1025ul, 65535ul, 65537ul}) {
    auto v = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.0, "z"},
                                         n, 16 + n);
    check_against_reference(v, deep_options());
  }
}

// ---------------------------------------------------------------------------
// The radix base case (subproblems of at most θ records): prefix skip,
// adaptive digit, insertion-sort leaves, comparison fallback. Each key
// pattern below aims at one of those branches; every result is checked
// against std::stable_sort, keys and values both.

namespace {

struct ki64 {
  std::int64_t key;
  std::uint64_t value;
};

struct kf64 {
  double key;
  std::uint64_t value;
};

enum class pattern {
  all_equal,
  lowest_bit,     // keys differ only in bit 0
  powers_of_two,  // the deepest binary split
  shared_prefix,  // all keys share every bit above the low 16
  zipf,
};

constexpr pattern kPatterns[] = {pattern::all_equal, pattern::lowest_bit,
                                 pattern::powers_of_two,
                                 pattern::shared_prefix, pattern::zipf};

// n pattern keys over the low `width` bits.
std::vector<std::uint64_t> pattern_keys(pattern p, std::size_t n, int width,
                                        std::uint64_t seed) {
  const std::uint64_t mask = dovetail::low_mask(width);
  const std::uint64_t c = 0xA5C3'96E1'5A3C'691Eull & mask;
  std::vector<std::uint64_t> keys(n);
  if (p == pattern::zipf) {
    keys = gen::generate_keys<std::uint64_t>(
        {gen::dist_kind::zipfian, 1.2, "z"}, n, seed);
    for (auto& k : keys) k &= mask;
    return keys;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t h = dovetail::par::hash64(seed * 0x9E37'79B9ull + i);
    switch (p) {
      case pattern::all_equal: keys[i] = c; break;
      case pattern::lowest_bit: keys[i] = (c & ~1ull) | (h & 1); break;
      case pattern::powers_of_two:
        keys[i] = 1ull << (h % static_cast<std::uint64_t>(width));
        break;
      case pattern::shared_prefix:
        keys[i] = (c & ~0xFFFFull) | (h & 0xFFFF);
        break;
      case pattern::zipf: break;
    }
  }
  return keys;
}

// The same pattern as records of every key type. Typed keys are built so
// their order-preserving encoding carries the pattern bits unchanged: an
// i64 key is the pattern with its sign bit flipped, and an f64 key is a
// double in [2^52, 2^53) whose mantissa is a 52-bit pattern.
void check_pattern(pattern p, std::size_t n, const sort_options& opt,
                   std::uint64_t seed) {
  {
    std::vector<kv32> v(n);
    const auto keys = pattern_keys(p, n, 32, seed);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = {static_cast<std::uint32_t>(keys[i]),
              static_cast<std::uint32_t>(i)};
    check_against_reference(v, opt);
  }
  {
    std::vector<kv64> v(n);
    const auto keys = pattern_keys(p, n, 64, seed);
    for (std::size_t i = 0; i < n; ++i) v[i] = {keys[i], i};
    check_against_reference(v, opt);
  }
  {
    std::vector<ki64> v(n);
    const auto keys = pattern_keys(p, n, 64, seed);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = {std::bit_cast<std::int64_t>(keys[i] ^ (1ull << 63)), i};
    check_against_reference(v, opt);
  }
  {
    std::vector<kf64> v(n);
    const auto keys = pattern_keys(p, n, 52, seed);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = {std::bit_cast<double>(0x4330'0000'0000'0000ull | keys[i]), i};
    check_against_reference(v, opt);
  }
}

}  // namespace

// Default options: inputs of at most θ records are one base case that
// starts in A; θ + 1 distributes once, so the base cases start in T. The
// deep options (θ = 32, γ = 4) put base cases below several levels, in
// both buffers. Together they end radix passes in A and in T.
TEST(DovetailSortRadixBase, PatternsAtLeafAndThetaEdges) {
  const std::size_t theta = sort_options{}.base_case;
  for (pattern p : kPatterns)
    for (std::size_t n : {16ul, 17ul, theta, theta + 1})
      check_pattern(p, n, {}, 100 + n);
}

TEST(DovetailSortRadixBase, PatternsUnderDeepRecursion) {
  const sort_options o = deep_options();
  for (pattern p : kPatterns)
    for (std::size_t n : {16ul, 17ul, o.base_case, o.base_case + 1, 5000ul})
      check_pattern(p, n, o, 200 + n);
}

// Distinct powers of two peel off one or two records per pass, so a node
// reaches log2(n') passes and finishes with the comparison fallback.
TEST(DovetailSortRadixBase, PassCapReachesComparisonFallback) {
  std::vector<kv64> v(64);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {1ull << ((i * 37) % 64), i};
  dovetail::sort_stats st;
  sort_options o;
  o.stats = &st;
  check_against_reference(v, o);
  EXPECT_EQ(st.base_case_records.load(), v.size());
  EXPECT_GT(st.base_case_fallback_records.load(), 0u);

  // A key set the radix passes split evenly never needs the fallback.
  std::vector<kv64> w(4096);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = {(i * 2654435761u) % 4096, i};
  st.reset();
  check_against_reference(w, o);
  EXPECT_EQ(st.base_case_fallback_records.load(), 0u);
}

// Keys far above the sampled range go through the overflow bucket, which
// keeps the comparison sort; everything else ends in radix base cases.
TEST(DovetailSortRadixBase, OverflowBucketBesideRadixBaseCases) {
  const std::size_t n = 200000;
  std::vector<kv64> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t k = dovetail::par::hash64(i) & 0xFFFFF;
    if (i % 40000 == 7) k = ~0ull - i;
    v[i] = {k, i};
  }
  dovetail::sort_stats st;
  sort_options o;
  o.stats = &st;
  check_against_reference(v, o);
  EXPECT_GT(st.overflow_records.load(), 0u);
  EXPECT_EQ(st.base_case_records.load() + st.overflow_records.load() +
                st.heavy_records.load(),
            n);
}

TEST(DovetailSortRadixBase, DuplicateFreeInputEndsInBaseCases) {
  const std::size_t n = std::size_t{1} << 18;
  std::vector<kv64> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = {(i * 2654435761u) % n, i};
  dovetail::sort_stats st;
  sort_options o;
  o.stats = &st;
  check_against_reference(v, o);
  EXPECT_EQ(st.heavy_records.load(), 0u);
  EXPECT_EQ(st.base_case_records.load(), n);
}
