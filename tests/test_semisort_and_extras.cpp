// Tests for semisort, the unstable counting sort (Appendix B), and the
// LSD radix sort (distributions, digit widths, edge sizes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "dovetail/baselines/lsd_radix_sort.hpp"
#include "dovetail/core/semisort.hpp"
#include "dovetail/core/unstable_counting_sort.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/util/record.hpp"
#include "test_util.hpp"

using namespace dovetail;
namespace gen = dovetail::gen;

// ---------------------------------------------------------------------------
// Semisort

TEST(Semisort, GroupsAreContiguous) {
  auto v = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.2, "z"},
                                       150000, 11);
  std::map<std::uint32_t, std::size_t> expect;
  for (const auto& r : v) ++expect[r.key];
  semisort(std::span<kv32>(v), key_of_kv32);
  // Every key appears in exactly one contiguous run of the right length.
  std::set<std::uint32_t> seen;
  std::size_t i = 0;
  while (i < v.size()) {
    std::size_t j = i;
    while (j < v.size() && v[j].key == v[i].key) ++j;
    ASSERT_TRUE(seen.insert(v[i].key).second)
        << "key " << v[i].key << " appears in two separate groups";
    ASSERT_EQ(j - i, expect[v[i].key]);
    i = j;
  }
  ASSERT_EQ(seen.size(), expect.size());
}

TEST(Semisort, StableWithinGroups) {
  auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 100, "u"},
                                       100000, 12);
  semisort(std::span<kv32>(v), key_of_kv32);
  for (std::size_t i = 1; i < v.size(); ++i)
    if (v[i - 1].key == v[i].key) {
      ASSERT_LT(v[i - 1].value, v[i].value) << i;
    }
}

TEST(Semisort, GroupOffsetsRoundTrip) {
  auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 50, "u"},
                                       50000, 13);
  semisort(std::span<kv32>(v), key_of_kv32);
  auto offs = group_offsets(std::span<const kv32>(v), key_of_kv32);
  ASSERT_GE(offs.size(), 2u);
  EXPECT_EQ(offs.front(), 0u);
  EXPECT_EQ(offs.back(), v.size());
  for (std::size_t g = 0; g + 1 < offs.size(); ++g) {
    for (std::size_t i = offs[g] + 1; i < offs[g + 1]; ++i)
      ASSERT_EQ(v[i].key, v[offs[g]].key);
    if (g + 2 < offs.size()) {
      ASSERT_NE(v[offs[g]].key, v[offs[g + 1]].key);
    }
  }
}

TEST(Semisort, EmptyAndSingleton) {
  std::vector<kv32> v;
  semisort(std::span<kv32>(v), key_of_kv32);
  EXPECT_TRUE(v.empty());
  v = {{7, 0}};
  semisort(std::span<kv32>(v), key_of_kv32);
  EXPECT_EQ(v[0].key, 7u);
}

// group_offsets edge shapes — the boundary cases group_by builds on.
TEST(Semisort, GroupOffsetsEmptyInput) {
  const std::vector<kv32> v;
  const auto offs = group_offsets(std::span<const kv32>(v), key_of_kv32);
  // Empty input: only the terminator — zero groups, offs.size() - 1 == 0.
  EXPECT_EQ(offs, std::vector<std::size_t>{0});
}

TEST(Semisort, GroupOffsetsSingleGroup) {
  const std::vector<kv32> v(1234, kv32{42, 0});
  const auto offs = group_offsets(std::span<const kv32>(v), key_of_kv32);
  EXPECT_EQ(offs, (std::vector<std::size_t>{0, 1234}));
}

TEST(Semisort, GroupOffsetsAllSingletons) {
  std::vector<kv32> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = {static_cast<std::uint32_t>(i * 7 + 1),
            static_cast<std::uint32_t>(i)};
  const auto offs = group_offsets(std::span<const kv32>(v), key_of_kv32);
  ASSERT_EQ(offs.size(), v.size() + 1);
  for (std::size_t i = 0; i <= v.size(); ++i) ASSERT_EQ(offs[i], i);
}

// ---------------------------------------------------------------------------
// Unstable counting sort (Appendix B / Thm 4.1 primitive)

TEST(UnstableCountingSort, BucketsCorrectOrderArbitrary) {
  const std::size_t n = 200000, nb = 64;
  std::vector<kv32> in(n), out(n);
  for (std::size_t i = 0; i < n; ++i)
    in[i] = {static_cast<std::uint32_t>(par::hash64(i)),
             static_cast<std::uint32_t>(i)};
  auto bucket_of = [](const kv32& r) -> std::size_t { return r.key % 64; };
  auto offs = unstable_counting_sort(std::span<const kv32>(in),
                                     std::span<kv32>(out), nb, bucket_of);
  ASSERT_EQ(offs.front(), 0u);
  ASSERT_EQ(offs.back(), n);
  for (std::size_t k = 0; k < nb; ++k)
    for (std::size_t i = offs[k]; i < offs[k + 1]; ++i)
      ASSERT_EQ(bucket_of(out[i]), k);
  // Permutation: every input index appears exactly once.
  std::vector<char> seen(n, 0);
  for (const auto& r : out) {
    ASSERT_FALSE(seen[r.value]);
    seen[r.value] = 1;
  }
}

TEST(UnstableCountingSort, AgreesWithStableOnOffsets) {
  const std::size_t n = 100000, nb = 256;
  std::vector<kv32> in(n), out1(n), out2(n);
  for (std::size_t i = 0; i < n; ++i)
    in[i] = {static_cast<std::uint32_t>(par::rand_range(31, i, 1u << 20)),
             static_cast<std::uint32_t>(i)};
  auto bucket_of = [](const kv32& r) -> std::size_t { return r.key % 256; };
  auto o1 = counting_sort(std::span<const kv32>(in), std::span<kv32>(out1),
                          nb, bucket_of);
  auto o2 = unstable_counting_sort(std::span<const kv32>(in),
                                   std::span<kv32>(out2), nb, bucket_of);
  EXPECT_EQ(o1, o2);
}

TEST(UnstableCountingSort, EmptyInput) {
  std::vector<kv32> in, out;
  auto offs = unstable_counting_sort(std::span<const kv32>(in),
                                     std::span<kv32>(out), 8,
                                     [](const kv32&) -> std::size_t {
                                       return 0;
                                     });
  EXPECT_EQ(offs, (std::vector<std::size_t>(9, 0)));
}

// ---------------------------------------------------------------------------
// LSD radix sort

TEST(LsdRadix, StableAcrossDistributions32) {
  for (const auto& d : std::vector<gen::distribution>{
           {gen::dist_kind::uniform, 1e9, "u"},
           {gen::dist_kind::zipfian, 1.2, "z"},
           {gen::dist_kind::bexp, 100, "b"}}) {
    auto v = gen::generate_records<kv32>(d, 150000, 21);
    auto ref = v;
    std::stable_sort(ref.begin(), ref.end(), [](const kv32& a, const kv32& b) {
      return a.key < b.key;
    });
    baseline::lsd_radix_sort(std::span<kv32>(v), key_of_kv32);
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(v[i].key, ref[i].key) << i;
      ASSERT_EQ(v[i].value, ref[i].value) << i;
    }
  }
}

TEST(LsdRadix, StableAcrossDistributions64) {
  auto v = gen::generate_records<kv64>({gen::dist_kind::exponential, 7, "e"},
                                       120000, 22);
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(), [](const kv64& a, const kv64& b) {
    return a.key < b.key;
  });
  baseline::lsd_radix_sort(std::span<kv64>(v), key_of_kv64);
  for (std::size_t i = 0; i < v.size(); ++i) ASSERT_EQ(v[i], ref[i]);
}

TEST(LsdRadix, DigitWidthSweepAndEdgeSizes) {
  for (int gamma : {4, 8, 11}) {
    auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 1e5, "u"},
                                         60000, 24);
    baseline::lsd_radix_sort(std::span<kv32>(v), key_of_kv32,
                             {.gamma = gamma});
    EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv32>(v), key_of_kv32));
  }
  for (std::size_t n : {0ul, 1ul, 2ul, 17ul}) {
    auto v = gen::generate_records<kv32>({gen::dist_kind::uniform, 1e5, "u"},
                                         n, 25);
    baseline::lsd_radix_sort(std::span<kv32>(v), key_of_kv32);
    EXPECT_TRUE(dtt::sorted_by_key(std::span<const kv32>(v), key_of_kv32));
  }
}
