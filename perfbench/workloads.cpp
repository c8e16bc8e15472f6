// The four workloads. Inputs come from generators/synthetic.hpp and the
// service request sizes from bench/scenarios_service.hpp; every output is
// compared with a std::stable_sort reference computed before the clock runs.
#include <map>
#include <stdexcept>

#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/sort_service.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/parallel/random.hpp"
#include "perfbench.hpp"
#include "scenarios_service.hpp"

namespace perfbench {

namespace {

namespace dt = dovetail;
namespace gen = dovetail::gen;

const gen::distribution kUnif1e9{gen::dist_kind::uniform, 1e9, "Unif-1e9"};
const gen::distribution kUnif1e7{gen::dist_kind::uniform, 1e7, "Unif-1e7"};
const gen::distribution kZipf12{gen::dist_kind::zipfian, 1.2, "Zipf-1.2"};

// Records per service-mixed batch. The sort_service probe of the other
// workloads cuts their primary input into one batch of this size.
constexpr std::size_t kBatchRecords = 1'000'000;

std::string kernel_counts_json(const std::map<std::string, std::size_t>& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ',';
    s.append("\"").append(k).append("\":").append(std::to_string(v));
  }
  return s + "}";
}

// sort-uniform / sort-skewed: dovetail::sort on a 1e7-record kv64 input.
// Calls cycle through kInputs inputs drawn from sub-seeds of the seed, so a
// run's figures average over inputs and compare across seeds. Each input is
// regenerated before its call; its reference is the stable permutation, and
// output record j must equal input record perm[j] (value = input index).
class sort_workload final : public workload {
 public:
  static constexpr std::size_t kRecords = 10'000'000;
  static constexpr std::size_t kInputs = 8;

  sort_workload(const gen::distribution& d, std::uint64_t seed)
      : d_(d), seed_(seed), work_(kRecords), keys_(kRecords) {
    for (std::size_t k = 0; k < kInputs; ++k) {
      seeds_[k] = k == 0 ? seed : dt::par::hash64(seed ^ dt::par::hash64(k));
      perms_[k] = stable_permutation<std::uint64_t>(
          kRecords, [&](std::size_t i) { return record(k, i).key; });
    }
  }

  call_outcome call(dt::workspace_pool& pool, dt::sort_stats& stats,
                    tracer* tr, std::uint64_t call_id) override {
    const std::size_t k = call_id % kInputs;
    fill(k, work_);
    dt::par::parallel_for(0, kRecords, [&](std::size_t i) { keys_[i] = work_[i].key; });
    call_outcome o;
    o.records = kRecords;
    o.requests = 1;
    o.attempted = 1;
    const auto t0 = bench_clock::now();
    try {
      const span_scope s(tr, "auto_sort.sort", -1, call_id);
      const dt::workspace_pool::handle ws = pool.checkout();
      dt::auto_sort_options opt;
      opt.workspace = ws.get();
      opt.pool = &pool;
      opt.stats = &stats;
      dt::sort(std::span<kv64>(work_), kv64_key{}, opt);
    } catch (const std::exception& e) {
      o.failed = 1;
      o.error = std::string("dovetail::sort threw: ") + e.what();
    }
    o.seconds = seconds_since(t0);
    const std::vector<std::uint32_t>& perm = perms_[k];
    if (o.failed == 0 && mismatches(kRecords, [&](std::size_t j) {
          return work_[j].value == perm[j] && work_[j].key == keys_[perm[j]];
        }) != 0) {
      // Name the fault with the full-record checker.
      std::vector<kv64> before(kRecords), ref(kRecords);
      fill(k, before);
      dt::par::parallel_for(0, kRecords,
                            [&](std::size_t j) { ref[j] = record(k, perms_[k][j]); });
      o.failed = 1;
      o.error = check_kv64(before, work_, ref).why;
    }
    if (const auto kern = dt::chosen_kernel_of(stats)) ++kernels_[dt::kernel_name(*kern)];
    return o;
  }

  [[nodiscard]] std::vector<kv64> primary() const override {
    std::vector<kv64> in(kRecords);
    fill(0, in);
    return in;
  }
  [[nodiscard]] std::vector<std::size_t> request_sizes() const override {
    return dtb::service_request_sizes("mixed", kBatchRecords, seed_);
  }
  [[nodiscard]] std::string dispatch() const override {
    return kernel_counts_json(kernels_);
  }

 private:
  // Record i of input k, exactly as gen::generate_records builds it.
  [[nodiscard]] kv64 record(std::size_t k, std::size_t i) const {
    return {gen::make_key(d_, seeds_[k], i, kRecords, 64), i};
  }
  void fill(std::size_t k, std::vector<kv64>& out) const {
    dt::par::parallel_for(0, kRecords, [&](std::size_t i) { out[i] = record(k, i); });
  }

  gen::distribution d_;
  std::uint64_t seed_;
  std::uint64_t seeds_[kInputs] = {};
  std::vector<std::uint32_t> perms_[kInputs];
  std::vector<kv64> work_;
  std::vector<std::uint64_t> keys_;  // input keys of the current call
  std::map<std::string, std::size_t> kernels_;
};

// service-mixed: back-to-back sort_batch calls. Every call gets a fresh
// batch of ~100 requests totalling 1M records, drawn from (seed, call id):
// sizes by service_request_sizes("mixed"), inputs alternating Unif-1e7 and
// Zipf-1.2. Fresh batches keep the request count of a run close to its
// expectation, so per-run figures compare across seeds.
class service_workload final : public workload {
 public:
  service_workload(std::uint64_t seed, int workers)
      : seed_(seed), workers_(workers) {}

  call_outcome call(dt::workspace_pool& pool, dt::sort_stats& stats,
                    tracer* tr, std::uint64_t call_id) override {
    batch b = make_batch(call_id);
    std::vector<dt::sort_request<kv64, kv64_key>> reqs(b.sizes.size());
    for (std::size_t r = 0; r < reqs.size(); ++r)
      reqs[r].data = std::span<kv64>(b.work).subspan(b.offsets[r], b.sizes[r]);
    dt::service_options opt;
    opt.concurrency = workers_;
    opt.pool = &pool;
    opt.stats = &stats;

    call_outcome o;
    o.records = b.work.size();
    o.requests = reqs.size();
    o.attempted = reqs.size();
    const auto t0 = bench_clock::now();
    try {
      const span_scope s(tr, "sort_service.sort_batch", -1, call_id);
      dt::sort_batch(reqs, opt);
    } catch (const std::exception& e) {
      o.failed = reqs.size();
      o.error = std::string("sort_batch threw: ") + e.what();
    }
    o.seconds = seconds_since(t0);
    if (o.failed != 0) return o;
    for (std::size_t r = 0; r < reqs.size(); ++r) {
      const std::size_t off = b.offsets[r], sz = b.sizes[r];
      const check_result c = check_kv64(
          std::span<const kv64>(b.pristine).subspan(off, sz),
          reqs[r].data, std::span<const kv64>(b.ref).subspan(off, sz));
      if (!c.ok || !reqs[r].result.completed) {
        if (o.failed++ == 0)
          o.error = "request " + std::to_string(r) + ": " +
                    (c.ok ? std::string("not completed") : c.why);
      }
      ++kernels_[dt::kernel_name(reqs[r].result.kernel)];
    }
    return o;
  }

  [[nodiscard]] std::vector<kv64> primary() const override {
    return make_batch(0).pristine;
  }
  [[nodiscard]] std::vector<std::size_t> request_sizes() const override {
    return make_batch(0).sizes;
  }
  [[nodiscard]] std::string dispatch() const override {
    return kernel_counts_json(kernels_);
  }

 private:
  struct batch {
    std::vector<std::size_t> sizes, offsets;
    std::vector<kv64> pristine, work, ref;  // ref: each request sorted
  };

  [[nodiscard]] batch make_batch(std::uint64_t index) const {
    batch b;
    const std::uint64_t bseed = dt::par::hash64(seed_ ^ dt::par::hash64(index));
    b.sizes = dtb::service_request_sizes("mixed", kBatchRecords, bseed);
    b.offsets.assign(1, 0);
    for (const std::size_t sz : b.sizes) b.offsets.push_back(b.offsets.back() + sz);
    b.pristine.resize(b.offsets.back());
    dt::par::parallel_for(
        0, b.sizes.size(),
        [&](std::size_t r) {
          const std::vector<kv64> recs = gen::generate_records<kv64>(
              r % 2 == 0 ? kUnif1e7 : kZipf12, b.sizes[r],
              dt::par::hash64(bseed + r));
          std::copy(recs.begin(), recs.end(),
                    b.pristine.begin() + static_cast<std::ptrdiff_t>(b.offsets[r]));
        },
        1);
    b.work = b.pristine;
    b.ref = b.pristine;
    dt::par::parallel_for(
        0, b.sizes.size(),
        [&](std::size_t r) {
          const auto lo = b.ref.begin() + static_cast<std::ptrdiff_t>(b.offsets[r]);
          std::stable_sort(lo, lo + static_cast<std::ptrdiff_t>(b.sizes[r]),
                           [](const kv64& x, const kv64& y) { return x.key < y.key; });
        },
        1);
    return b;
  }

  std::uint64_t seed_;
  int workers_;
  std::map<std::string, std::size_t> kernels_;
};

// api-mix: one api_round per call on a 4e6-record Unif-1e9 kv64 input.
class api_workload final : public workload {
 public:
  static constexpr std::size_t kRecords = 4'000'000;

  explicit api_workload(std::uint64_t seed)
      : seed_(seed),
        base_(gen::generate_records<kv64>(kUnif1e9, kRecords, seed)),
        round_(base_) {}

  call_outcome call(dt::workspace_pool& pool, dt::sort_stats& stats,
                    tracer* tr, std::uint64_t call_id) override {
    const api_result r = round_.run(pool, stats, tr, -1, call_id);
    call_outcome o;
    o.seconds = r.total_s();
    o.records = api_round::kCalls * kRecords;
    o.requests = api_round::kCalls;
    o.attempted = api_round::kCalls;
    o.failed = r.failed;
    o.error = r.error;
    for (const auto& [call, kernel] : r.kernels) ++kernels_[call + ":" + kernel];
    return o;
  }

  [[nodiscard]] std::vector<kv64> primary() const override { return base_; }
  [[nodiscard]] std::vector<std::size_t> request_sizes() const override {
    return dtb::service_request_sizes("mixed", kBatchRecords, seed_);
  }
  [[nodiscard]] std::string dispatch() const override {
    return kernel_counts_json(kernels_);
  }
  api_round* own_round() override { return &round_; }

 private:
  std::uint64_t seed_;
  std::vector<kv64> base_;
  api_round round_;  // holds a view of base_, so it is declared after it
  std::map<std::string, std::size_t> kernels_;
};

}  // namespace

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int workers) {
  if (name == "sort-uniform")
    return std::make_unique<sort_workload>(kUnif1e9, seed);
  if (name == "sort-skewed")
    return std::make_unique<sort_workload>(kZipf12, seed);
  if (name == "service-mixed")
    return std::make_unique<service_workload>(seed, workers);
  if (name == "api-mix") return std::make_unique<api_workload>(seed);
  return nullptr;
}

}  // namespace perfbench
