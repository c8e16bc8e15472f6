// perfbench — one closed-loop client thread driving one workload of the
// dovetail library, with every output checked.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--src-digest HEX] [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same loop with
// spans on every other call, then the per-layer probes, prints the per-layer
// metrics and writes the spans to --trace-out. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit status: 0 when every checked output matched its reference, 1 when any
// call failed, 2 on bad arguments, 3 when the self-test did not catch a
// corrupted output.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/util/simd.hpp"
#include "perfbench.hpp"

namespace {

namespace dt = dovetail;
using namespace perfbench;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string trace_out;
};

bool parse(int argc, char** argv, options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = val;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) return false;
    } else if (flag == "--seconds") {
      const long s = std::strtol(val.c_str(), &end, 10);
      if (*end != '\0' || s < 1 || s > 3600) return false;
      o.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return false;
      o.trace = val == "1" ? 1 : 0;
    } else if (flag == "--git-sha") {
      o.git_sha = val;
    } else if (flag == "--src-digest") {
      o.src_digest = val;
    } else if (flag == "--trace-out") {
      o.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 && o.trace >= 0;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

std::size_t l3_bytes() {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& e :
       fs::directory_iterator("/sys/devices/system/cpu/cpu0/cache", ec)) {
    std::ifstream level(e.path() / "level"), size(e.path() / "size");
    int lv = 0;
    std::string sz;
    if (level >> lv && lv == 3 && size >> sz && !sz.empty()) {
      const std::size_t v = std::strtoull(sz.c_str(), nullptr, 10);
      return sz.back() == 'K' ? v << 10 : sz.back() == 'M' ? v << 20 : v;
    }
  }
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

int numa_nodes() {
  namespace fs = std::filesystem;
  std::error_code ec;
  int n = 0;
  for (const auto& e : fs::directory_iterator("/sys/devices/system/node", ec)) {
    const std::string name = e.path().filename().string();
    if (name.size() > 4 && name.rfind("node", 0) == 0 &&
        name.find_first_not_of("0123456789", 4) == std::string::npos)
      ++n;
  }
  return n;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--git-sha SHA] [--src-digest HEX] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const int workers = nproc();
  dt::par::scheduler::set_num_workers(workers);

  const check_result gate = self_test();
  std::printf("%s\n", gate.why.c_str());
  if (!gate.ok) return 3;

  std::unique_ptr<workload> w = make_workload(o.workload, o.seed, workers);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }

  const std::size_t l3 = l3_bytes();
  const std::string context =
      "{\"workload\":\"" + o.workload + "\",\"seed\":" + std::to_string(o.seed) +
      ",\"trace\":" + std::to_string(o.trace) +
      ",\"nproc\":" + std::to_string(nproc()) +
      ",\"scheduler_workers\":" + std::to_string(workers) +
      ",\"simd\":\"" + dt::simd::isa_name(dt::simd::level()) +
      "\",\"l3_bytes\":" + std::to_string(l3) +
      ",\"numa_nodes\":" + std::to_string(numa_nodes()) +
      ",\"compiler\":\"" + compiler() + "\",\"build_type\":\"" +
      PERFBENCH_BUILD_TYPE + "\",\"git_sha\":\"" + o.git_sha +
      "\",\"src_digest\":\"" + o.src_digest +
      "\",\"client\":\"closed loop, 1 thread\",\"seconds\":" +
      std::to_string(o.seconds) + "}";
  std::printf("context %s\n", context.c_str());

  dt::sort_stats stats;
  tracer tr(o.workload, &stats);
  tracer* const trp = o.trace == 1 ? &tr : nullptr;
  std::size_t attempted = 0, failed = 0;
  std::string first_error;
  const auto account = [&](const call_outcome& c) {
    attempted += c.attempted;
    failed += c.failed;
    if (first_error.empty() && !c.error.empty()) first_error = c.error;
  };

  // Set-up, several times: start the scheduler, build and prewarm the pool,
  // make the first cold call. Input generation happened above, unclocked.
  std::unique_ptr<dt::workspace_pool> pool;
  std::uint64_t call_id = 0;
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    pool.reset();
    const auto t0 = bench_clock::now();
    double start_s = 0.0;
    {
      const span_scope sp(trp, "setup.start", -1, call_id);
      dt::par::scheduler::set_num_workers(workers);
      pool = std::make_unique<dt::workspace_pool>(static_cast<std::size_t>(workers));
      pool->prewarm();
      start_s = seconds_since(t0);
    }
    const call_outcome c = w->call(*pool, stats, trp, call_id++);
    account(c);
    setups.push_back(start_s + c.seconds);
  }

  // Steady state: a closed loop for --seconds. The traced run traces every
  // other call, so the two medians give the tracing overhead.
  stats.reset();
  const std::uint64_t hits0 = pool->pool_hits(), checkouts0 = pool->checkouts();
  std::vector<double> lat, lat_traced;
  double busy_s = 0.0;
  std::size_t records = 0, requests = 0;
  std::uint64_t direct_calls = 0, buffered_calls = 0;
  const auto loop_t0 = bench_clock::now();
  for (std::size_t i = 0; i < 2 || seconds_since(loop_t0) < o.seconds; ++i) {
    const bool traced = trp != nullptr && i % 2 == 0;
    const std::uint64_t d0 = stats.scatter_direct_calls.load();
    const std::uint64_t b0 = stats.scatter_buffered_calls.load();
    const call_outcome c = w->call(*pool, stats, traced ? trp : nullptr, call_id++);
    if (i == 0) {
      direct_calls = stats.scatter_direct_calls.load() - d0;
      buffered_calls = stats.scatter_buffered_calls.load() - b0;
    }
    account(c);
    (traced ? lat_traced : lat).push_back(c.seconds);
    busy_s += c.seconds;
    records += c.records;
    requests += c.requests;
  }

  metric_list metrics;
  if (trp == nullptr) {
    const tail_stat tail = tail_latency(lat);
    metrics = {
        {"throughput_mrec_s", static_cast<double>(records) / busy_s / 1e6, "Mrec/s"},
        {"latency_p50_ms", median(lat) * 1e3, "ms"},
        {"latency_tail_ms", tail.value * 1e3, "ms"},
        {"req_per_s", static_cast<double>(requests) / busy_s, "1/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("latency_tail_ms is p%.1f of %zu calls\n", tail.percentile,
                tail.samples);
  } else {
    // Counters of the steady-state loop, read before the probes run.
    const std::uint64_t checkouts = pool->checkouts() - checkouts0;
    const double hit_frac =
        checkouts == 0 ? 1.0
                       : static_cast<double>(pool->pool_hits() - hits0) /
                             static_cast<double>(checkouts);
    const metric_list loop_metrics = {
        {"distribute.buffered_calls", static_cast<double>(buffered_calls), "count"},
        {"distribute.direct_calls", static_cast<double>(direct_calls), "count"},
        {"workspace.allocs_timed",
         static_cast<double>(stats.workspace_allocations.load()), "count"},
        {"workspace.peak_mb", static_cast<double>(stats.peak_workspace()) / 1e6, "MB"},
        {"workspace_pool.hit_frac", hit_frac, "frac"},
        {"trace.overhead_frac", median(lat_traced) / median(lat) - 1.0, "frac"}};
    try {
      metrics = probe_layers({*w, *pool, workers, trp, l3});
    } catch (const std::exception& e) {
      ++attempted;
      ++failed;
      if (first_error.empty()) first_error = std::string("probe: ") + e.what();
    }
    metrics.insert(metrics.end(), loop_metrics.begin(), loop_metrics.end());
    std::printf("roof arrays: %zu bytes each (L3 %zu bytes)\n",
                std::max<std::size_t>(std::size_t{128} << 20, 4 * l3), l3);
    if (!o.trace_out.empty()) {
      if (tr.write_json(o.trace_out, context))
        std::printf("trace written to %s\n", o.trace_out.c_str());
      else
        std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
    }
  }

  std::printf("dispatch %s\n", w->dispatch().c_str());
  for (const metric& m : metrics)
    std::printf("%s = %s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
  std::printf("failed_frac = %s (%zu of %zu)\n",
              num(attempted == 0 ? 0.0
                                 : static_cast<double>(failed) /
                                       static_cast<double>(attempted))
                  .c_str(),
              failed, attempted);
  if (failed != 0) std::printf("first failure: %s\n", first_error.c_str());

  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
