// Per-layer probes of the traced run. Each probe times calls into one
// layer's public function on the workload's primary input (restored before
// every call, outside the clock) and checks the output.
//
// Thread ladders (p1, p2, p4) restart the scheduler with that many workers,
// capped at the worker count of the run; everything else runs at the run's
// worker count.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "dovetail/baselines/lsd_radix_sort.hpp"
#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/distribute.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/input_sketch.hpp"
#include "dovetail/core/sort_service.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/util/bits.hpp"
#include "dovetail/util/checkers.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

namespace dt = dovetail;
namespace par = dovetail::par;

constexpr int kLadder[] = {1, 2, 4};
std::atomic<std::uint64_t> g_sink{0};  // keeps probe results observable

void require(const check_result& c, const std::string& what) {
  if (!c.ok) throw std::runtime_error(what + ": " + c.why);
}

// Median over `reps` calls of f(), which returns the seconds it measured.
template <typename F>
double median_of(int reps, F&& f) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) s.push_back(f());
  return median(s);
}

class prober {
 public:
  explicit prober(const probe_context& ctx)
      : ctx_(ctx),
        in_store_(ctx.w.primary()),
        ref_store_(stable_reference(in_store_)),
        in_(in_store_),
        ref_(ref_store_),
        work_(in_.size()),
        ws_(ctx.pool.checkout()) {}

  metric_list run() {
    roof();
    fork_join();
    sketch();
    kernels();
    front_door();
    distribution();
    ws_.release();
    service();
    // The api round needs only the input: drop the rest first.
    std::vector<kv64>().swap(work_);
    std::vector<kv64>().swap(ref_store_);
    api();
    return std::move(m_);
  }

 private:
  void add(std::string name, double value, std::string unit) {
    m_.push_back({std::move(name), value, std::move(unit)});
  }
  static std::string suffix(int p) { return ".p" + std::to_string(p); }
  [[nodiscard]] int workers_at(int p) const { return std::min(p, ctx_.workers); }
  static void set_workers(int p) { par::scheduler::set_num_workers(p); }

  void restore() { par::copy(in_, std::span<kv64>(work_)); }

  // Times one call on a restored copy of the input and checks the result;
  // the span reads its counts from `st` (the probe's own stats when null).
  template <typename F>
  double timed_sort(const std::string& name, int parent, F&& f,
                    const dt::sort_stats* st = nullptr) {
    restore();
    const auto t0 = bench_clock::now();
    {
      const span_scope s(ctx_.tr, name, parent, 0, st != nullptr ? st : &stats_);
      f(std::span<kv64>(work_));
    }
    const double secs = seconds_since(t0);
    require(check_kv64(in_, work_, ref_), name);
    return secs;
  }

  // roof: plain parallel read and copy loops over arrays of at least 4x L3.
  void roof() {
    const span_scope group(ctx_.tr, "probe.roof", -1, 0, &stats_);
    const std::size_t bytes = std::max<std::size_t>(std::size_t{128} << 20,
                                                    4 * ctx_.l3_bytes);
    const std::size_t words = bytes / sizeof(std::uint64_t);
    std::vector<std::uint64_t> a(words), b(words);
    par::parallel_for(0, words, [&](std::size_t i) { a[i] = i; });
    for (const int p : kLadder) {
      const int w = workers_at(p);
      set_workers(w);
      const auto slice = [&](std::size_t blk) {
        return std::pair{blk * words / static_cast<std::size_t>(w),
                         (blk + 1) * words / static_cast<std::size_t>(w)};
      };
      const double read_s = median_of(9, [&] {
        const span_scope s(ctx_.tr, "roof.read" + suffix(p), group.id(), 0);
        const auto t0 = bench_clock::now();
        par::parallel_for(
            0, static_cast<std::size_t>(w),
            [&](std::size_t blk) {
              const auto [lo, hi] = slice(blk);
              std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
              std::size_t i = lo;
              for (; i + 4 <= hi; i += 4) {
                s0 += a[i];
                s1 += a[i + 1];
                s2 += a[i + 2];
                s3 += a[i + 3];
              }
              for (; i < hi; ++i) s0 += a[i];
              g_sink.fetch_add(s0 + s1 + s2 + s3, std::memory_order_relaxed);
            },
            1);
        return seconds_since(t0);
      });
      const double copy_s = median_of(9, [&] {
        const span_scope s(ctx_.tr, "roof.copy" + suffix(p), group.id(), 0);
        const auto t0 = bench_clock::now();
        par::parallel_for(
            0, static_cast<std::size_t>(w),
            [&](std::size_t blk) {
              const auto [lo, hi] = slice(blk);
              std::memcpy(b.data() + lo, a.data() + lo,
                          (hi - lo) * sizeof(std::uint64_t));
            },
            1);
        return seconds_since(t0);
      });
      g_sink.fetch_add(b[words / 2], std::memory_order_relaxed);
      add("roof.read_gbs" + suffix(p), static_cast<double>(bytes) / read_s / 1e9,
          "GB/s");
      // Copy traffic counts the bytes read plus the bytes written.
      add("roof.copy_gbs" + suffix(p),
          2.0 * static_cast<double>(bytes) / copy_s / 1e9, "GB/s");
      if (p == 4) copy_gbs_p4_ = 2.0 * static_cast<double>(bytes) / copy_s / 1e9;
    }
    set_workers(ctx_.workers);
  }

  // parallel: an empty parallel_for over one block per worker of the run.
  void fork_join() {
    const span_scope group(ctx_.tr, "probe.fork_join", -1, 0, &stats_);
    constexpr int kCalls = 200;
    const auto blocks = static_cast<std::size_t>(ctx_.workers);
    for (const int p : {2, 4}) {
      set_workers(workers_at(p));
      const auto empty = [&] { par::parallel_for(0, blocks, [](std::size_t) {}, 1); };
      for (int i = 0; i < kCalls; ++i) empty();
      const double s = median_of(15, [&] {
        const span_scope sp(ctx_.tr, "parallel.fork_join" + suffix(p), group.id(), 0);
        const auto t0 = bench_clock::now();
        for (int i = 0; i < kCalls; ++i) empty();
        return seconds_since(t0) / kCalls;
      });
      add("parallel.fork_join_us" + suffix(p), s * 1e6, "us");
    }
    set_workers(ctx_.workers);
  }

  void sketch() {
    const span_scope group(ctx_.tr, "probe.input_sketch", -1, 0, &stats_);
    sketch_s_ = median_of(9, [&] {
      const span_scope s(ctx_.tr, "input_sketch.sketch_input", group.id(), 0);
      const auto t0 = bench_clock::now();
      const dt::input_sketch sk = dt::sketch_input(in_, kv64_key{});
      const double secs = seconds_since(t0);
      g_sink.fetch_add(sk.num_samples, std::memory_order_relaxed);
      return secs;
    });
    add("input_sketch.sketch_ms", sketch_s_ * 1e3, "ms");
  }

  // dovetail_sort ladder plus its work counters, and lsd_radix_sort at p4
  // with the parameters the dispatcher would tune for it.
  void kernels() {
    const span_scope group(ctx_.tr, "probe.kernels", -1, 0, &stats_);
    dt::sort_stats kst;
    for (const int p : kLadder) {
      set_workers(workers_at(p));
      const double s = median_of(p == 4 ? 5 : 3, [&] {
        kst.reset();
        return timed_sort("dovetail_sort" + suffix(p), group.id(),
                          [&](std::span<kv64> d) {
                            dt::sort_options o;
                            o.workspace = ws_.get();
                            o.stats = &kst;
                            dt::dovetail_sort(d, kv64_key{}, o);
                          },
                          &kst);
      });
      add("dovetail_sort.kernel_ms" + suffix(p), s * 1e3, "ms");
      if (p == 4) dtsort_s_ = s;
    }
    set_workers(ctx_.workers);
    const double n = static_cast<double>(in_.size());
    const auto frac = [&](const std::atomic<std::uint64_t>& c) {
      return static_cast<double>(c.load()) / n;
    };
    add("dovetail_sort.levels", frac(kst.distributed_records), "levels");
    add("dovetail_sort.heavy_frac", frac(kst.heavy_records), "frac");
    add("dovetail_sort.base_case_frac", frac(kst.base_case_records), "frac");
    add("dovetail_sort.merged_frac", frac(kst.merged_records), "frac");
    add("dovetail_sort.sampled_frac", frac(kst.sampled_keys), "frac");
    add("dovetail_sort.max_depth", static_cast<double>(kst.max_depth.load()),
        "count");

    dt::input_sketch sk = dt::sketch_input(in_, kv64_key{});
    sk.record_bytes = sizeof(kv64);
    dt::kernel_plan plan;
    plan.kernel = dt::sort_kernel::lsd;
    dt::dispatch_policy{}.tune(plan, sk);
    lsd_s_ = median_of(5, [&] {
      return timed_sort("lsd_radix_sort.p4", group.id(), [&](std::span<kv64> d) {
        dt::baseline::lsd_options o;
        o.gamma = plan.gamma;
        o.scatter = plan.scatter;
        o.workspace = ws_.get();
        o.stats = &stats_;
        dt::baseline::lsd_radix_sort(d, kv64_key{}, o);
      });
    });
    add("lsd_radix_sort.kernel_ms.p4", lsd_s_ * 1e3, "ms");
  }

  // auto_sort: the front door, and the front door pinned to each kernel.
  void front_door() {
    const span_scope group(ctx_.tr, "probe.auto_sort", -1, 0, &stats_);
    std::vector<double> fd, pin_dt, pin_lsd;
    dt::sort_kernel chosen = dt::sort_kernel::dtsort;
    const auto front = [&](const char* name, const dt::dispatch_policy& policy) {
      return timed_sort(name, group.id(), [&](std::span<kv64> d) {
        dt::auto_sort_options o;
        o.policy = policy;
        o.workspace = ws_.get();
        o.pool = &ctx_.pool;
        o.stats = &stats_;
        dt::sort(d, kv64_key{}, o);
      });
    };
    for (int r = 0; r < 5; ++r) {
      fd.push_back(front("auto_sort.sort", dt::policy::automatic()));
      if (const auto k = dt::chosen_kernel_of(stats_)) chosen = *k;
      pin_dt.push_back(front("auto_sort.sort.pinned_dtsort",
                             dt::policy::always(dt::sort_kernel::dtsort)));
      pin_lsd.push_back(front("auto_sort.sort.pinned_lsd",
                              dt::policy::always(dt::sort_kernel::lsd)));
    }
    chosen_ = chosen;
    const double fd_s = median(fd);
    // The chosen kernel called directly; a kernel with no direct probe is
    // taken as the front door pinned to it, less the sketch.
    double kernel_s = 0.0;
    if (chosen == dt::sort_kernel::dtsort) {
      kernel_s = dtsort_s_;
    } else if (chosen == dt::sort_kernel::lsd) {
      kernel_s = lsd_s_;
    } else {
      std::vector<double> pin;
      for (int r = 0; r < 5; ++r)
        pin.push_back(front("auto_sort.sort.pinned_chosen", dt::policy::always(chosen)));
      kernel_s = median(pin) - sketch_s_;
    }
    add("auto_sort.frontdoor_ms", fd_s * 1e3, "ms");
    add("auto_sort.unattributed_ms", (fd_s - sketch_s_ - kernel_s) * 1e3, "ms");
    add("auto_sort.pick_vs_best", fd_s / std::min(median(pin_dt), median(pin_lsd)),
        "ratio");
  }

  // distribute: one top-level pass at the digit width of the kernel the
  // front door picked (lsd: the low 8-bit digit; otherwise dovetail_sort's
  // top digit, clamp(ceil(log2 n) / 3, 8, 12) bits wide).
  void distribution() {
    const span_scope group(ctx_.tr, "probe.distribute", -1, 0, &stats_);
    const std::size_t n = in_.size();
    int gamma = 8, shift = 0;
    if (chosen_ != dt::sort_kernel::lsd) {
      gamma = std::clamp(static_cast<int>(dt::ceil_log2(n) / 3), 8, 12);
      const std::uint64_t maxk = par::reduce_map(
          0, n, std::uint64_t{0}, [&](std::size_t i) { return in_[i].key; },
          [](std::uint64_t x, std::uint64_t y) { return std::max(x, y); });
      shift = std::max(0, dt::bit_width_u64(maxk) - gamma);
    }
    const std::size_t buckets = std::size_t{1} << gamma;
    const std::uint64_t mask = buckets - 1;
    const auto bucket_of = [=](const kv64& r) -> std::size_t {
      return (r.key >> shift) & mask;
    };
    std::vector<std::size_t> counts(buckets), offsets(buckets + 1);
    dt::distribute_options o;
    o.workspace = ws_.get();
    o.stats = &stats_;
    const std::uint64_t fingerprint = dt::key_multiset_fingerprint(in_, kv64_key{});
    for (const int p : kLadder) {
      set_workers(workers_at(p));
      const double hist_s = median_of(7, [&] {
        const span_scope s(ctx_.tr, "distribute.histogram" + suffix(p), group.id(), 0);
        const auto t0 = bench_clock::now();
        dt::distribute_histogram(in_, buckets, bucket_of, std::span<std::size_t>(counts), o);
        return seconds_since(t0);
      });
      std::size_t total = 0;
      for (const std::size_t c : counts) total += c;
      if (total != n) throw std::runtime_error("distribute_histogram: counts do not sum to n");
      const double pass_s = median_of(7, [&] {
        const auto t0 = bench_clock::now();
        {
          const span_scope s(ctx_.tr, "distribute.pass" + suffix(p), group.id(), 0);
          dt::distribute(in_, std::span<kv64>(work_), buckets, bucket_of,
                         std::span<std::size_t>(offsets), o);
        }
        return seconds_since(t0);
      });
      const std::span<const kv64> out(work_);
      if (!dt::is_sorted_by_key(out, bucket_of) ||
          dt::key_multiset_fingerprint(out, kv64_key{}) != fingerprint)
        throw std::runtime_error("distribute: output is not a bucket-ordered permutation");
      add("distribute.histogram_ms" + suffix(p), hist_s * 1e3, "ms");
      // The scatter share of a pass: the whole pass less its counting phase.
      add("distribute.scatter_ms" + suffix(p), (pass_s - hist_s) * 1e3, "ms");
      if (p == 4)
        add("distribute.scatter_roof_frac.p4",
            2.0 * static_cast<double>(n * sizeof(kv64)) / pass_s / 1e9 /
                copy_gbs_p4_,
            "frac");
    }
    set_workers(ctx_.workers);
  }

  // sort_service: the primary input cut into the workload's request sizes,
  // as one concurrent batch and as the same requests one by one.
  void service() {
    const span_scope group(ctx_.tr, "probe.sort_service", -1, 0, &stats_);
    const std::vector<std::size_t> sizes = ctx_.w.request_sizes();
    std::vector<std::size_t> offs(1, 0);
    for (const std::size_t s : sizes) offs.push_back(offs.back() + s);
    if (offs.back() > in_.size()) throw std::runtime_error("service: sizes exceed input");
    const std::span<const kv64> in = in_.first(offs.back());
    std::vector<kv64> ref(in.begin(), in.end());
    par::parallel_for(
        0, sizes.size(),
        [&](std::size_t r) {
          const auto lo = ref.begin() + static_cast<std::ptrdiff_t>(offs[r]);
          std::stable_sort(lo, lo + static_cast<std::ptrdiff_t>(sizes[r]),
                           [](const kv64& a, const kv64& b) { return a.key < b.key; });
        },
        1);
    const auto batch = [&](int concurrency, double& request_s) {
      par::copy(in, std::span<kv64>(work_).first(in.size()));
      std::vector<dt::sort_request<kv64, kv64_key>> reqs(sizes.size());
      for (std::size_t r = 0; r < reqs.size(); ++r) {
        reqs[r].data = std::span<kv64>(work_).subspan(offs[r], sizes[r]);
        reqs[r].num_threads = concurrency == 1 ? 1 : 0;
      }
      dt::service_options o;
      o.concurrency = concurrency;
      o.pool = &ctx_.pool;
      o.stats = &stats_;
      const auto t0 = bench_clock::now();
      {
        const span_scope s(ctx_.tr, concurrency == 1 ? "sort_service.serial_batch"
                                                     : "sort_service.sort_batch",
                           group.id(), 0);
        dt::sort_batch(reqs, o);
      }
      const double secs = seconds_since(t0);
      request_s = 0.0;
      for (std::size_t r = 0; r < reqs.size(); ++r) {
        request_s += reqs[r].result.seconds;
        require(check_kv64(in.subspan(offs[r], sizes[r]), reqs[r].data,
                           std::span<const kv64>(ref).subspan(offs[r], sizes[r])),
                "sort_batch");
      }
      return secs;
    };
    std::vector<double> eff;
    for (int r = 0; r < 5; ++r) {
      double request_s = 0.0;
      const double wall = batch(ctx_.workers, request_s);
      eff.push_back(request_s / (wall * ctx_.workers));
    }
    const double serial_s = median_of(3, [&] {
      double ignored = 0.0;
      return batch(1, ignored);
    });
    add("sort_service.concurrency_eff", median(eff), "frac");
    add("sort_service.serial_batch_ms", serial_s * 1e3, "ms");
  }

  // key_codec, wide_sort, order_stats, stream_sort: api-mix rounds on the
  // first 4e6 records of the primary input (api-mix's own round there).
  void api() {
    const span_scope group(ctx_.tr, "probe.api_round", -1, 0, &stats_);
    std::unique_ptr<api_round> local;
    api_round* round = ctx_.w.own_round();
    if (round == nullptr) {
      local = std::make_unique<api_round>(
          in_.first(std::min<std::size_t>(in_.size(), 4'000'000)));
      round = local.get();
    }
    dt::sort_stats ast;
    std::vector<api_result> rs;
    for (int r = 0; r < 3; ++r) {
      rs.push_back(round->run(ctx_.pool, ast, ctx_.tr, group.id(), 0));
      if (rs.back().failed != 0) throw std::runtime_error("api round: " + rs.back().error);
    }
    const auto med = [&](double api_result::*field) {
      std::vector<double> v;
      for (const api_result& x : rs) v.push_back(x.*field);
      return median(v) * 1e3;
    };
    const api_result& last = rs.back();
    add("key_codec.sort_by_key_ms", med(&api_result::sort_by_key_s), "ms");
    add("key_codec.rank_ms", med(&api_result::rank_s), "ms");
    add("wide_sort.sort_ms", med(&api_result::wide_s), "ms");
    add("wide_sort.refine_rounds", static_cast<double>(last.refine_rounds), "count");
    add("wide_sort.segments", static_cast<double>(last.wide_segments), "count");
    add("order_stats.top_k_ms", med(&api_result::top_k_s), "ms");
    add("order_stats.pruned_frac",
        static_cast<double>(last.records_pruned) / static_cast<double>(round->size()),
        "frac");
    add("stream_sort.push_ms", med(&api_result::push_s), "ms");
    add("stream_sort.finish_ms", med(&api_result::finish_s), "ms");
  }

  const probe_context& ctx_;
  std::vector<kv64> in_store_, ref_store_;
  std::span<const kv64> in_, ref_;
  std::vector<kv64> work_;
  dt::workspace_pool::handle ws_;  // one warm workspace for the kernel probes
  dt::sort_stats stats_;
  metric_list m_;
  double copy_gbs_p4_ = 1.0;
  double sketch_s_ = 0.0;
  double dtsort_s_ = 0.0;
  double lsd_s_ = 0.0;
  dt::sort_kernel chosen_ = dt::sort_kernel::dtsort;
};

}  // namespace

metric_list probe_layers(const probe_context& ctx) {
  prober p(ctx);
  metric_list m = p.run();
  par::scheduler::set_num_workers(ctx.workers);
  return m;
}

}  // namespace perfbench
