// Statistics, the span tracer and the correctness gate of perfbench.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "dovetail/generators/synthetic.hpp"
#include "dovetail/util/checkers.hpp"
#include "perfbench.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

tail_stat tail_latency(std::vector<double> v) {
  tail_stat t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Too few samples for ten beyond the median: fall back to the median.
  const std::size_t idx = n > 10 ? std::max(n - 11, (n - 1) / 2) : n - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

// ---------------------------------------------------------------------------
// Tracer.

namespace {

using stats_field = std::atomic<std::uint64_t> dovetail::sort_stats::*;
struct counter_field {
  const char* name;
  stats_field field;
  bool cumulative;  // false: a last-write-wins snapshot, reported as is
};

constexpr counter_field kCounters[] = {
    {"distributed_records", &dovetail::sort_stats::distributed_records, true},
    {"heavy_records", &dovetail::sort_stats::heavy_records, true},
    {"base_case_records", &dovetail::sort_stats::base_case_records, true},
    {"merged_records", &dovetail::sort_stats::merged_records, true},
    {"sampled_keys", &dovetail::sort_stats::sampled_keys, true},
    {"num_distributions", &dovetail::sort_stats::num_distributions, true},
    {"workspace_allocations", &dovetail::sort_stats::workspace_allocations,
     true},
    {"workspace_reuses", &dovetail::sort_stats::workspace_reuses, true},
    {"scatter_direct_calls", &dovetail::sort_stats::scatter_direct_calls,
     true},
    {"scatter_buffered_calls", &dovetail::sort_stats::scatter_buffered_calls,
     true},
    {"records_pruned", &dovetail::sort_stats::records_pruned, true},
    {"service_requests", &dovetail::sort_stats::service_requests, true},
    {"stream_chunks", &dovetail::sort_stats::stream_chunks, true},
    {"stream_merge_records", &dovetail::sort_stats::stream_merge_records,
     true},
    {"chosen_kernel", &dovetail::sort_stats::chosen_kernel, false},
    {"refine_rounds", &dovetail::sort_stats::refine_rounds, false},
    {"wide_segments", &dovetail::sort_stats::wide_segments, false},
    {"peak_workspace_bytes", &dovetail::sort_stats::peak_workspace_bytes,
     false},
};

std::uint64_t read(const dovetail::sort_stats& st, const counter_field& c) {
  return (st.*c.field).load(std::memory_order_relaxed);
}

}  // namespace

tracer::tracer(std::string workload, const dovetail::sort_stats* stats)
    : workload_(std::move(workload)),
      stats_(stats),
      origin_(bench_clock::now()) {}

int tracer::open(std::string name, int parent, std::uint64_t call_id,
                 const dovetail::sort_stats* stats) {
  span s;
  s.name = std::move(name);
  s.parent = parent;
  s.call_id = call_id;
  s.stats = stats != nullptr ? stats : stats_;
  if (s.stats != nullptr)
    for (const counter_field& c : kCounters)
      s.counts.push_back(read(*s.stats, c));
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   bench_clock::now() - origin_)
                   .count();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void tracer::close(int id) {
  span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 bench_clock::now() - origin_)
                 .count();
  if (s.stats != nullptr)
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      const std::uint64_t now = read(*s.stats, kCounters[i]);
      s.counts[i] = kCounters[i].cumulative ? now - s.counts[i] : now;
    }
}

bool tracer::write_json(const std::string& path,
                        const std::string& context_json) const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);

  std::ostringstream out;
  out << "{\"workload\":\"" << workload_ << "\",\"context\":" << context_json
      << ",\"spans\":[";
  std::map<std::string, double> self_by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
    // Union of the child intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t c : children[i])
      iv.emplace_back(std::max(spans_[c].start_ns, s.start_ns),
                      std::min(spans_[c].end_ns, end));
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [lo, hi] : iv) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    const double self_us = static_cast<double>(end - s.start_ns - covered) / 1e3;
    self_by_name[s.name] += self_us;
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"parent\":" << s.parent
        << ",\"call\":" << s.call_id
        << ",\"start_us\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"end_us\":" << static_cast<double>(end) / 1e3
        << ",\"self_us\":" << self_us << ",\"counts\":{";
    bool first = true;
    for (std::size_t k = 0; k < s.counts.size(); ++k) {
      if (s.counts[k] == 0) continue;
      out << (first ? "" : ",") << "\"" << kCounters[k].name
          << "\":" << s.counts[k];
      first = false;
    }
    out << "}}";
  }
  out << "\n],\"self_us_by_name\":{";
  bool first = true;
  for (const auto& [name, us] : self_by_name) {
    out << (first ? "" : ",") << "\n\"" << name << "\":" << us;
    first = false;
  }
  out << "\n}}\n";
  std::ofstream f(path);
  f << out.str();
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Correctness gate.

std::vector<kv64> stable_reference(std::span<const kv64> in) {
  std::vector<kv64> ref(in.begin(), in.end());
  std::stable_sort(ref.begin(), ref.end(),
                   [](const kv64& a, const kv64& b) { return a.key < b.key; });
  return ref;
}

check_result check_kv64(std::span<const kv64> before,
                        std::span<const kv64> out,
                        std::span<const kv64> ref) {
  if (out.size() == ref.size() &&
      (out.empty() ||
       std::memcmp(out.data(), ref.data(), out.size() * sizeof(kv64)) == 0))
    return {};
  if (out.size() != ref.size())
    return {false, "output size " + std::to_string(out.size()) +
                       " != input size " + std::to_string(ref.size())};
  if (!dovetail::is_sorted_by_key(out, kv64_key{}))
    return {false, "output is not sorted by key"};
  if (!dovetail::is_sorted_permutation_of(before, out, kv64_key{}))
    return {false, "output keys are not a permutation of the input keys"};
  return {false,
          "sorted, but records differ from the stable order (unstable or "
          "payload changed)"};
}

check_result self_test() {
  namespace gen = dovetail::gen;
  const std::vector<kv64> in = gen::generate_records<kv64>(
      gen::distribution{gen::dist_kind::zipfian, 1.2, "Zipf-1.2"}, 4096, 7);
  const std::vector<kv64> ref = stable_reference(in);
  if (!check_kv64(in, ref, ref).ok)
    return {false, "self-test: the reference fails its own check"};
  std::size_t distinct = 0, equal = 0;
  while (distinct + 1 < ref.size() && ref[distinct].key == ref[distinct + 1].key)
    ++distinct;
  while (equal + 1 < ref.size() && ref[equal].key != ref[equal + 1].key)
    ++equal;
  if (distinct + 1 >= ref.size() || equal + 1 >= ref.size())
    return {false, "self-test: input lacks distinct or equal neighbours"};
  std::vector<kv64> bad = ref;
  std::swap(bad[distinct], bad[distinct + 1]);
  const check_result order = check_kv64(in, bad, ref);
  bad = ref;
  std::swap(bad[equal], bad[equal + 1]);
  const check_result stability = check_kv64(in, bad, ref);
  if (order.ok || stability.ok)
    return {false, "self-test: a swapped pair of records was not caught"};
  return {true, "self-test: swapped records caught (" + order.why + "; " +
                    stability.why + ")"};
}

}  // namespace perfbench
