// Tests for the unified distribution engine (distribute.hpp) and its
// reusable sort_workspace arena (workspace.hpp):
//  * slab leasing: first checkout allocates, repeats are freelist hits;
//  * repeated dovetail_sort calls on one workspace reach a steady state
//    with ZERO fresh allocations (the engine's no-hot-path-malloc
//    property), observable through the new sort_stats counters;
//  * the stable `direct` scatter matches a std::stable_sort-by-bucket
//    reference across bucket counts and the dovetail_sort option matrix;
//    `unstable` produces the same offsets and per-bucket multisets, and a
//    stable caller's `unstable` request runs `direct`;
//  * the single-bucket short-circuit copies without building id arrays or
//    counting matrices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "dovetail/core/counting_sort.hpp"
#include "dovetail/core/distribute.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/semisort.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/unstable_counting_sort.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/util/record.hpp"

using namespace dovetail;
namespace gen = dovetail::gen;

namespace {

std::vector<kv32> random_records(std::size_t n, std::uint32_t key_bound,
                                 std::uint64_t seed) {
  std::vector<kv32> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = {static_cast<std::uint32_t>(par::rand_range(seed, i, key_bound)),
            static_cast<std::uint32_t>(i)};
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Workspace mechanics.

TEST(Workspace, LeaseAllocatesOnceThenReuses) {
  sort_workspace ws;
  {
    sort_workspace::lease l = ws.acquire(1000);
    auto s = l.carve<std::size_t>(100);
    s[0] = 42;  // writable
    EXPECT_GE(l.capacity(), 1000u);
  }
  EXPECT_EQ(ws.allocations(), 1u);
  EXPECT_EQ(ws.reuses(), 0u);
  {
    // Same pow2 size class (1024): must be a freelist hit.
    sort_workspace::lease l = ws.acquire(600);
  }
  EXPECT_EQ(ws.allocations(), 1u);
  EXPECT_EQ(ws.reuses(), 1u);
  {
    // Different size class: fresh allocation.
    sort_workspace::lease l = ws.acquire(5000);
  }
  EXPECT_EQ(ws.allocations(), 2u);
  // trim() drops the freelists; the next checkout allocates again.
  ws.trim();
  {
    sort_workspace::lease l = ws.acquire(600);
  }
  EXPECT_EQ(ws.allocations(), 3u);
}

TEST(Workspace, RecordBufferGrowsMonotonicallyAndReuses) {
  sort_workspace ws;
  auto b1 = ws.record_buffer<kv32>(1000);
  EXPECT_EQ(b1.size(), 1000u);
  const std::uint64_t allocs = ws.allocations();
  auto b2 = ws.record_buffer<kv32>(500);  // fits: reuse, same storage
  EXPECT_EQ(static_cast<void*>(b2.data()), static_cast<void*>(b1.data()));
  EXPECT_EQ(ws.allocations(), allocs);
  EXPECT_GT(ws.reuses(), 0u);
  auto b3 = ws.record_buffer<kv64>(100000);  // outgrows: one realloc
  EXPECT_EQ(b3.size(), 100000u);
  EXPECT_EQ(ws.allocations(), allocs + 1);
}

TEST(Workspace, CountersFlowIntoSortStats) {
  sort_workspace ws;
  sort_stats st;
  { sort_workspace::lease l = ws.acquire(1 << 12, &st); }
  { sort_workspace::lease l = ws.acquire(1 << 12, &st); }
  EXPECT_EQ(st.workspace_allocations.load(), 1u);
  EXPECT_EQ(st.workspace_reuses.load(), 1u);
  EXPECT_GE(st.workspace_bytes_allocated.load(), std::uint64_t{1} << 12);
}

// ---------------------------------------------------------------------------
// The tentpole property: repeated sorts on one workspace stop allocating.

TEST(Workspace, RepeatedDovetailSortAllocationFreeAfterWarmup) {
  const std::size_t n = 300000;
  const auto base = gen::generate_records<kv32>(
      {gen::dist_kind::zipfian, 1.2, "z"}, n, 11);
  sort_workspace ws;
  sort_stats st;
  sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;

  // Run until five consecutive sorts perform zero fresh allocations.
  // (Scheduling can shift slab demand between early runs; the steady state
  // must still arrive quickly.)
  int zero_streak = 0;
  std::uint64_t reuses_at_streak_start = 0;
  for (int iter = 0; iter < 25 && zero_streak < 5; ++iter) {
    const std::uint64_t before = st.workspace_allocations.load();
    if (zero_streak == 0) reuses_at_streak_start = st.workspace_reuses.load();
    auto v = base;
    dovetail_sort(std::span<kv32>(v), key_of_kv32, opt);
    ASSERT_TRUE(std::is_sorted(
        v.begin(), v.end(),
        [](const kv32& a, const kv32& b) { return a.key < b.key; }));
    zero_streak =
        st.workspace_allocations.load() == before ? zero_streak + 1 : 0;
  }
  EXPECT_EQ(zero_streak, 5) << "workspace never reached zero-allocation "
                               "steady state within 25 sorts";
  // The allocation-free sorts were served entirely by reuse.
  EXPECT_GT(st.workspace_reuses.load(), reuses_at_streak_start);
}

TEST(Workspace, SemisortSharesTheEngineAndWorkspace) {
  const std::size_t n = 150000;
  auto base = gen::generate_records<kv32>(
      {gen::dist_kind::uniform, 200, "u"}, n, 13);
  sort_workspace ws;
  sort_stats st;
  sort_options opt;
  opt.workspace = &ws;
  opt.stats = &st;
  auto v = base;
  semisort(std::span<kv32>(v), key_of_kv32, opt);
  // Distribution ran through the engine with workspace-backed scratch.
  EXPECT_GT(st.scatter_direct_calls.load(), 0u);
  EXPECT_GT(st.workspace_allocations.load() + st.workspace_reuses.load(), 0u);
  // Equal keys are adjacent: each key starts exactly one run.
  std::set<std::uint32_t> seen;
  for (std::size_t i = 0; i < n;) {
    const std::uint32_t k = v[i].key;
    ASSERT_TRUE(seen.insert(k).second)
        << "key " << k << " split into two groups";
    while (i < n && v[i].key == k) ++i;
  }
}

// ---------------------------------------------------------------------------
// Scatter strategies: the stable scatter matches a stable_sort reference.

TEST(ScatterStrategies, DirectMatchesStableSortAcrossBucketCounts) {
  for (std::size_t nb : {2ul, 17ul, 256ul, 4096ul, 1ul << 17}) {
    const std::size_t n = nb >= (1ul << 17) ? 120000 : 80000;
    const auto in = random_records(n, static_cast<std::uint32_t>(4 * nb), 7);
    auto bucket_of = [nb](const kv32& r) -> std::size_t { return r.key % nb; };
    auto ref = in;
    std::stable_sort(ref.begin(), ref.end(), [&](const kv32& a, const kv32& b) {
      return bucket_of(a) < bucket_of(b);
    });
    std::vector<kv32> out(n);
    std::vector<std::size_t> offs(nb + 1);
    distribute(std::span<const kv32>(in), std::span<kv32>(out), nb, bucket_of,
               std::span<std::size_t>(offs));
    for (std::size_t k = 0; k < nb; ++k) {
      const auto first = std::partition_point(
          ref.begin(), ref.end(),
          [&](const kv32& r) { return bucket_of(r) < k; });
      ASSERT_EQ(offs[k], static_cast<std::size_t>(first - ref.begin()))
          << "nb=" << nb << " k=" << k;
    }
    ASSERT_EQ(offs[nb], n) << "nb=" << nb;
    ASSERT_TRUE(std::equal(out.begin(), out.end(), ref.begin()))
        << "nb=" << nb;
  }
}

TEST(ScatterStrategies, DovetailSortMatchesStableSortAcrossOptionsMatrix) {
  auto zipf = gen::generate_records<kv32>({gen::dist_kind::zipfian, 1.3, "z"},
                                          60000, 91);
  auto ref = zipf;
  std::stable_sort(ref.begin(), ref.end(), [](const kv32& a, const kv32& b) {
    return a.key < b.key;
  });
  for (bool heavy : {true, false}) {
    for (bool dtm : {true, false}) {
      for (int gamma : {3, 8}) {
        sort_options o;
        o.detect_heavy = heavy;
        o.use_dt_merge = dtm;
        o.gamma = gamma;
        auto v = zipf;
        dovetail_sort(std::span<kv32>(v), key_of_kv32, o);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(v[i].key, ref[i].key)
              << "heavy=" << heavy << " dtm=" << dtm << " gamma=" << gamma
              << " i=" << i;
          ASSERT_EQ(v[i].value, ref[i].value)
              << "heavy=" << heavy << " dtm=" << dtm << " gamma=" << gamma
              << " i=" << i;
        }
      }
    }
  }
}

TEST(ScatterStrategies, UnstableSameOffsetsAndBucketMultisets) {
  const std::size_t n = 100000, nb = 128;
  const auto in = random_records(n, 1u << 28, 31);
  auto bucket_of = [](const kv32& r) -> std::size_t { return r.key % 128; };
  std::vector<kv32> stable_out(n), unstable_out(n);
  auto off_s = counting_sort(std::span<const kv32>(in),
                             std::span<kv32>(stable_out), nb, bucket_of);
  auto off_u = unstable_counting_sort(std::span<const kv32>(in),
                                      std::span<kv32>(unstable_out), nb,
                                      bucket_of);
  ASSERT_EQ(off_s, off_u);
  auto by_rec = [](const kv32& a, const kv32& b) {
    return a.key != b.key ? a.key < b.key : a.value < b.value;
  };
  for (std::size_t k = 0; k < nb; ++k) {
    std::vector<kv32> s(stable_out.begin() + off_s[k],
                        stable_out.begin() + off_s[k + 1]);
    std::vector<kv32> u(unstable_out.begin() + off_u[k],
                        unstable_out.begin() + off_u[k + 1]);
    std::sort(s.begin(), s.end(), by_rec);
    std::sort(u.begin(), u.end(), by_rec);
    ASSERT_EQ(s.size(), u.size()) << k;
    for (std::size_t i = 0; i < s.size(); ++i) {
      ASSERT_EQ(s[i].key, u[i].key) << k << "/" << i;
      ASSERT_EQ(s[i].value, u[i].value) << k << "/" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine edge cases.

TEST(Distribute, SingleBucketShortCircuits) {
  const std::size_t n = 50000;
  const auto in = random_records(n, 1u << 30, 37);
  std::vector<kv32> out(n);
  sort_stats st;
  distribute_options o;
  o.stats = &st;
  std::vector<std::size_t> offs(2);
  distribute(std::span<const kv32>(in), std::span<kv32>(out), 1,
             [](const kv32&) -> std::size_t { return 0; },
             std::span<std::size_t>(offs), o);
  EXPECT_EQ(offs[0], 0u);
  EXPECT_EQ(offs[1], n);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i].value, i);  // stable
  // Short-circuit: no scatter pass, no workspace traffic.
  EXPECT_EQ(st.scatter_direct_calls.load() + st.scatter_unstable_calls.load(),
            0u);
  EXPECT_EQ(st.workspace_allocations.load() + st.workspace_reuses.load(), 0u);
}

TEST(Distribute, StableCallerRunsDirectForUnstableRequest) {
  const std::size_t n = 100000;
  const auto in = random_records(n, 1u << 20, 41);
  std::vector<kv32> out(n);
  std::vector<std::size_t> offs(257);
  auto bucket_of = [](const kv32& r) -> std::size_t { return r.key & 255; };
  sort_stats st;
  distribute_options o;
  o.stats = &st;
  o.strategy = scatter_strategy::unstable;
  distribute(std::span<const kv32>(in), std::span<kv32>(out), 256, bucket_of,
             std::span<std::size_t>(offs), o);
  EXPECT_EQ(st.scatter_unstable_calls.load(), 1u);
  EXPECT_EQ(st.scatter_direct_calls.load(), 0u);
  // require_stable downgrades the request: one direct pass, stable output.
  o.require_stable = true;
  distribute(std::span<const kv32>(in), std::span<kv32>(out), 256, bucket_of,
             std::span<std::size_t>(offs), o);
  EXPECT_EQ(st.scatter_unstable_calls.load(), 1u);
  EXPECT_EQ(st.scatter_direct_calls.load(), 1u);
  auto ref = in;
  std::stable_sort(ref.begin(), ref.end(), [&](const kv32& a, const kv32& b) {
    return bucket_of(a) < bucket_of(b);
  });
  EXPECT_TRUE(std::equal(out.begin(), out.end(), ref.begin()));
}

TEST(Distribute, NonTriviallyCopyableRecordsStillSupported) {
  // The old counting_sort accepted any copy-assignable record; the engine
  // must keep that contract (its scatters only copy-assign).
  struct srec {
    std::uint32_t key;
    std::string payload;  // non-trivially-copyable
  };
  const std::size_t n = 5000, nb = 16;
  std::vector<srec> in(n);
  for (std::size_t i = 0; i < n; ++i)
    in[i] = {static_cast<std::uint32_t>(par::hash64(i)), std::to_string(i)};
  auto bucket_of = [](const srec& r) -> std::size_t { return r.key % 16; };
  std::vector<srec> out(n);
  auto offs = counting_sort(std::span<const srec>(in), std::span<srec>(out),
                            nb, bucket_of);
  ASSERT_EQ(offs.back(), n);
  std::size_t prev_in_bucket = 0;
  for (std::size_t k = 0; k < nb; ++k) {
    for (std::size_t i = offs[k]; i < offs[k + 1]; ++i) {
      ASSERT_EQ(bucket_of(out[i]), k);
      const std::size_t orig = std::stoul(out[i].payload);
      if (i > offs[k]) ASSERT_LT(prev_in_bucket, orig);  // stable
      prev_in_bucket = orig;
    }
  }
}

TEST(Distribute, HistogramMatchesOffsets) {
  const std::size_t n = 80000, nb = 300;
  const auto in = random_records(n, 1u << 24, 43);
  auto bucket_of = [](const kv32& r) -> std::size_t { return r.key % 300; };
  std::vector<kv32> out(n);
  auto offs = counting_sort(std::span<const kv32>(in), std::span<kv32>(out),
                            nb, bucket_of);
  std::vector<std::size_t> counts(nb);
  distribute_histogram(std::span<const kv32>(in), nb, bucket_of,
                       std::span<std::size_t>(counts));
  for (std::size_t k = 0; k < nb; ++k)
    ASSERT_EQ(counts[k], offs[k + 1] - offs[k]) << k;
}
