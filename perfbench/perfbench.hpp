// Shared declarations of the perfbench program.
//
// perfbench drives the dovetail library the way a client would: one client
// thread issues a call into a public entry point, waits for it to return,
// checks the output against a cached std::stable_sort reference (outside the
// clock), and issues the next call (a closed loop). Every layer is measured
// from outside, by timing calls into its public functions; counters come
// from the sort_stats object the benchmark passes in. See layers.json for
// the workloads, the metrics and which end-to-end metric each layer metric
// is predicted to move.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/util/record.hpp"

namespace perfbench {

using dovetail::kv64;
using bench_clock = std::chrono::steady_clock;

class api_round;

// Named (default-constructible) key functor, so kv64 requests can be held
// in dovetail::sort_request.
struct kv64_key {
  std::uint64_t operator()(const kv64& r) const noexcept { return r.key; }
};

inline double seconds_since(bench_clock::time_point t0) {
  return std::chrono::duration<double>(bench_clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Sample statistics.

double median(std::vector<double> v);

// The highest percentile with at least ten samples beyond it: the 11th
// largest sample, or the median when fewer than 21 samples leave no such
// percentile above it. With ten or fewer samples it is the maximum.
struct tail_stat {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
tail_stat tail_latency(std::vector<double> v);

// ---------------------------------------------------------------------------
// Trace: spans kept in memory, written as JSON when the run ends.

class tracer {
 public:
  tracer(std::string workload, const dovetail::sort_stats* stats);

  // Opens a span and snapshots the counters of `stats` (the tracer's own
  // stats object when null). Returns the span id.
  int open(std::string name, int parent, std::uint64_t call_id,
           const dovetail::sort_stats* stats = nullptr);
  void close(int id);

  // Writes every span with its self time (duration minus the part of it
  // covered by child spans) and its counter deltas.
  [[nodiscard]] bool write_json(const std::string& path,
                                const std::string& context_json) const;

 private:
  struct span {
    std::string name;
    int parent = -1;
    std::uint64_t call_id = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    const dovetail::sort_stats* stats = nullptr;
    std::vector<std::uint64_t> counts;  // start snapshot, then deltas
  };
  std::string workload_;
  const dovetail::sort_stats* stats_;
  bench_clock::time_point origin_;
  std::vector<span> spans_;
};

// RAII span; a no-op when the tracer is null (untraced calls).
class span_scope {
 public:
  span_scope(tracer* tr, std::string name, int parent, std::uint64_t call_id,
             const dovetail::sort_stats* stats = nullptr)
      : tr_(tr),
        id_(tr != nullptr ? tr->open(std::move(name), parent, call_id, stats)
                          : -1) {}
  ~span_scope() {
    if (tr_ != nullptr) tr_->close(id_);
  }
  span_scope(const span_scope&) = delete;
  span_scope& operator=(const span_scope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  tracer* tr_;
  int id_;
};

// ---------------------------------------------------------------------------
// Correctness gate.

struct check_result {
  bool ok = true;
  std::string why;
};

// Stable-sorted copy of `in` (std::stable_sort by key): the reference every
// kv64 output is compared against.
std::vector<kv64> stable_reference(std::span<const kv64> in);

// The stable order of [0, n) by key_at(i), computed with std::stable_sort:
// the reference as a permutation, for inputs rebuilt from their generator.
template <typename K, typename KeyAt>
std::vector<std::uint32_t> stable_permutation(std::size_t n,
                                              const KeyAt& key_at) {
  std::vector<std::pair<K, std::uint32_t>> tagged(n);
  dovetail::par::parallel_for(0, n, [&](std::size_t i) {
    tagged[i] = {key_at(i), static_cast<std::uint32_t>(i)};
  });
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::uint32_t> perm(n);
  dovetail::par::parallel_for(0, n,
                              [&](std::size_t i) { perm[i] = tagged[i].second; });
  return perm;
}

// Number of positions i in [0, n) where ok(i) is false.
template <typename Ok>
std::size_t mismatches(std::size_t n, const Ok& ok) {
  return dovetail::par::reduce_map(
      0, n, std::size_t{0},
      [&](std::size_t i) -> std::size_t { return ok(i) ? 0 : 1; },
      [](std::size_t a, std::size_t b) { return a + b; });
}

// `out` must equal `ref` byte for byte, so stability is checked too. On a
// mismatch the checkers of util/checkers.hpp name what is wrong.
check_result check_kv64(std::span<const kv64> before,
                        std::span<const kv64> out, std::span<const kv64> ref);

// Shows the gate catches a corrupted output: two swapped records with
// distinct keys (order) and two swapped records with equal keys
// (stability) must both fail check_kv64. Returns a one-line report.
check_result self_test();

// ---------------------------------------------------------------------------
// Metrics as printed in the result line.

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using metric_list = std::vector<metric>;

// ---------------------------------------------------------------------------
// Workloads. A call restores its inputs (untimed), runs the timed region,
// then checks every output against the cached reference (untimed).

struct call_outcome {
  double seconds = 0.0;       // wall time of the timed region
  std::size_t records = 0;    // input records the call sorted
  std::size_t requests = 0;   // public-API requests the call completed
  std::size_t attempted = 0;  // calls (or batch requests) attempted
  std::size_t failed = 0;     // of those, thrown or wrong
  std::string error;          // first failure, for the report
};

class workload {
 public:
  virtual ~workload() = default;
  virtual call_outcome call(dovetail::workspace_pool& pool,
                            dovetail::sort_stats& stats, tracer* tr,
                            std::uint64_t call_id) = 0;
  // The kv64 input the layer probes run on (built on demand).
  [[nodiscard]] virtual std::vector<kv64> primary() const = 0;
  // Request sizes the sort_service probe slices the primary input into.
  [[nodiscard]] virtual std::vector<std::size_t> request_sizes() const = 0;
  // JSON object: the kernels the front door picked, with counts.
  [[nodiscard]] virtual std::string dispatch() const = 0;
  // The workload's own api_round, when its call is one (api-mix), so the
  // probes reuse its inputs and references instead of building another.
  virtual api_round* own_round() { return nullptr; }
};

// Builds the inputs and references of a workload (excluded from every
// timing). Returns null for an unknown name.
std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int workers);

// ---------------------------------------------------------------------------
// The api-mix round: sort_by_key, rank, top_k, a wide-key sort and a
// 16-chunk stream, each on inputs derived from one kv64 span. It is the
// api-mix call and the probe of those layers on every other workload.

struct api_result {
  double sort_by_key_s = 0.0;
  double rank_s = 0.0;
  double top_k_s = 0.0;
  double wide_s = 0.0;
  double push_s = 0.0;    // the 16 stream pushes together
  double finish_s = 0.0;  // the stream merge
  std::uint64_t refine_rounds = 0;
  std::uint64_t wide_segments = 0;
  std::uint64_t records_pruned = 0;
  std::vector<std::pair<std::string, std::string>> kernels;  // call -> kernel
  std::size_t failed = 0;
  std::string error;
  [[nodiscard]] double total_s() const {
    return sort_by_key_s + rank_s + top_k_s + wide_s + push_s + finish_s;
  }
};

class api_round {
 public:
  static constexpr std::size_t kTopK = 1000;
  static constexpr std::size_t kStreamChunks = 16;
  static constexpr int kWideHiBits = 4;  // word-0 entropy of the wide keys
  static constexpr std::size_t kCalls = 5;

  explicit api_round(std::span<const kv64> base);
  ~api_round();
  api_round(const api_round&) = delete;
  api_round& operator=(const api_round&) = delete;

  api_result run(dovetail::workspace_pool& pool, dovetail::sort_stats& stats,
                 tracer* tr, int parent, std::uint64_t call_id);
  [[nodiscard]] std::size_t size() const noexcept;

 private:
  struct state;
  std::unique_ptr<state> s_;
};

// ---------------------------------------------------------------------------
// Per-layer probes of the traced run (everything except the counters read
// from the workload's own calls). Leaves the scheduler at `workers`.

struct probe_context {
  workload& w;
  dovetail::workspace_pool& pool;
  int workers = 1;
  tracer* tr = nullptr;
  std::size_t l3_bytes = 0;
};
metric_list probe_layers(const probe_context& ctx);

}  // namespace perfbench
