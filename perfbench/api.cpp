// The api-mix round: the typed-key, wide-key, order-statistics and streaming
// entry points, each on inputs derived from one kv64 span. References are
// stable permutations of the base span computed with std::stable_sort.
#include <bit>
#include <cstring>
#include <stdexcept>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/order_stats.hpp"
#include "dovetail/core/stream_sort.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

namespace dt = dovetail;
using wide_key = std::pair<std::uint64_t, std::uint64_t>;
using wide_rec = dt::tkv<wide_key>;

struct wide_key_fn {
  const wide_key& operator()(const wide_rec& r) const noexcept {
    return r.key;
  }
};

wide_key wide_of(std::uint64_t key) {
  return dt::gen::wide_key_from<wide_key>(key, api_round::kWideHiBits);
}

}  // namespace

struct api_round::state {
  std::span<const kv64> base;
  std::vector<kv64> kv_ref;   // stable by key
  std::vector<kv64> kv_work;  // top_k input
  std::vector<std::int64_t> sbk_keys;
  std::vector<std::uint64_t> sbk_values;
  std::vector<std::uint32_t> sbk_perm;
  std::vector<double> f64_keys;
  std::vector<std::uint32_t> rank_perm;
  std::vector<wide_rec> wide_work;
  std::vector<std::uint32_t> wide_perm;

  // Rebuilds every mutable input from the base span.
  void restore() {
    const std::size_t n = base.size();
    dt::par::parallel_for(0, n, [&](std::size_t i) {
      kv_work[i] = base[i];
      sbk_keys[i] = std::bit_cast<std::int64_t>(base[i].key);
      sbk_values[i] = base[i].value;
      wide_work[i] = {wide_of(base[i].key), static_cast<std::uint32_t>(i)};
    });
  }
};

api_round::api_round(std::span<const kv64> base) : s_(std::make_unique<state>()) {
  state& s = *s_;
  const std::size_t n = base.size();
  if (n > UINT32_MAX) throw std::invalid_argument("api_round: input too large");
  s.base = base;
  s.kv_ref = stable_reference(base);
  s.kv_work.resize(n);
  s.sbk_keys.resize(n);
  s.sbk_values.resize(n);
  s.wide_work.resize(n);
  s.f64_keys.resize(n);
  dt::par::parallel_for(0, n, [&](std::size_t i) {
    s.f64_keys[i] = dt::gen::typed_key_from<double>(base[i].key);
  });
  s.sbk_perm = stable_permutation<std::int64_t>(n, [&](std::size_t i) {
    return std::bit_cast<std::int64_t>(base[i].key);
  });
  // The f64 front door orders by the codec encoding (-0.0 before +0.0).
  s.rank_perm = stable_permutation<std::uint64_t>(n, [&](std::size_t i) {
    return dt::key_codec<double>::encode(s.f64_keys[i]);
  });
  s.wide_perm = stable_permutation<wide_key>(
      n, [&](std::size_t i) { return wide_of(base[i].key); });
}

api_round::~api_round() = default;

std::size_t api_round::size() const noexcept { return s_->base.size(); }

api_result api_round::run(dt::workspace_pool& pool, dt::sort_stats& stats,
                          tracer* tr, int parent, std::uint64_t call_id) {
  state& s = *s_;
  const std::size_t n = s.base.size();
  s.restore();
  api_result r;
  bool call_failed[kCalls] = {};
  std::vector<dt::index_t> ranks;
  std::span<kv64> top;
  std::vector<kv64> streamed;

  const auto options = [&](const dt::workspace_pool::handle& ws) {
    dt::auto_sort_options o;
    o.workspace = ws.get();
    o.pool = &pool;
    o.stats = &stats;
    return o;
  };
  const auto kernel_now = [&] {
    const auto k = dt::chosen_kernel_of(stats);
    return std::string(k ? dt::kernel_name(*k) : "none");
  };
  // Times f() and records a span under the round; a throw fails call `idx`.
  int round_span = -1;
  const auto timed = [&](std::size_t idx, const char* name, auto&& f) {
    const auto t0 = bench_clock::now();
    try {
      const span_scope sp(tr, name, round_span, call_id);
      f();
    } catch (const std::exception& e) {
      if (!call_failed[idx]) ++r.failed;
      call_failed[idx] = true;
      if (r.error.empty()) r.error = std::string(name) + " threw: " + e.what();
    }
    return seconds_since(t0);
  };

  {
    const span_scope round(tr, "api_mix.round", parent, call_id);
    round_span = round.id();
    r.sort_by_key_s = timed(0, "key_codec.sort_by_key", [&] {
      const dt::workspace_pool::handle ws = pool.checkout();
      const dt::sort_kernel k =
          dt::sort_by_key(std::span<std::int64_t>(s.sbk_keys),
                          std::span<std::uint64_t>(s.sbk_values), options(ws));
      r.kernels.emplace_back("sort_by_key", dt::kernel_name(k));
    });
    r.rank_s = timed(1, "key_codec.rank", [&] {
      const dt::workspace_pool::handle ws = pool.checkout();
      ranks = dt::rank(std::span<const double>(s.f64_keys), options(ws));
      r.kernels.emplace_back("rank", kernel_now());
    });
    r.top_k_s = timed(2, "order_stats.top_k", [&] {
      const std::uint64_t pruned0 = stats.records_pruned.load();
      const dt::workspace_pool::handle ws = pool.checkout();
      top = dt::top_k(std::span<kv64>(s.kv_work), kTopK, kv64_key{},
                      dt::rank_side::smallest, options(ws));
      r.records_pruned = stats.records_pruned.load() - pruned0;
    });
    r.wide_s = timed(3, "wide_sort.sort", [&] {
      const dt::workspace_pool::handle ws = pool.checkout();
      dt::sort(std::span<wide_rec>(s.wide_work), wide_key_fn{}, options(ws));
      r.refine_rounds = stats.refine_rounds.load();
      r.wide_segments = stats.wide_segments.load();
      r.kernels.emplace_back("wide_sort", kernel_now());
    });
    dt::stream_options so;
    so.pool = &pool;
    so.stats = &stats;
    dt::stream_sorter<kv64, kv64_key> stream(so);
    const std::size_t chunk = (n + kStreamChunks - 1) / kStreamChunks;
    for (std::size_t lo = 0; lo < n; lo += chunk)
      r.push_s += timed(4, "stream_sort.push", [&] {
        stream.push(s.base.subspan(lo, std::min(chunk, n - lo)));
      });
    r.finish_s = timed(4, "stream_sort.finish", [&] {
      streamed = stream.finish();
      r.kernels.emplace_back("stream_sort", kernel_now());
    });
  }

  // Checks, outside the clock: every output byte-identical to the stable
  // reference.
  const auto fail = [&](std::size_t idx, const std::string& why) {
    if (call_failed[idx]) return;
    call_failed[idx] = true;
    ++r.failed;
    if (r.error.empty()) r.error = why;
  };
  if (mismatches(n, [&](std::size_t i) {
        const kv64& want = s.base[s.sbk_perm[i]];
        return s.sbk_keys[i] == std::bit_cast<std::int64_t>(want.key) &&
               s.sbk_values[i] == want.value;
      }) != 0)
    fail(0, "sort_by_key: output differs from the stable reference");
  if (ranks.size() != n ||
      mismatches(n, [&](std::size_t i) { return ranks[i] == s.rank_perm[i]; }) != 0)
    fail(1, "rank: permutation differs from the stable reference");
  if (top.size() != kTopK ||
      std::memcmp(top.data(), s.kv_ref.data(), kTopK * sizeof(kv64)) != 0)
    fail(2, "top_k: result differs from the stable slice");
  if (mismatches(n, [&](std::size_t i) {
        const std::uint32_t p = s.wide_perm[i];
        return s.wide_work[i].value == p && s.wide_work[i].key == wide_of(s.base[p].key);
      }) != 0)
    fail(3, "wide sort: output differs from the stable reference");
  if (streamed.size() != n ||
      std::memcmp(streamed.data(), s.kv_ref.data(), n * sizeof(kv64)) != 0)
    fail(4, "stream_sorter: output differs from the stable reference");
  return r;
}

}  // namespace perfbench
