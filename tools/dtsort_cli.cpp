// dtsort — command-line front end for the library.
//
// Subcommands:
//   gen  --dist <name> --n <count> [--bits 32|64] [--seed S] -o file.bin
//        Generate a synthetic key/value dataset to a binary file.
//        <name>: unif-<mu> | exp-<lambda> | zipf-<s> | bexp-<t>
//   sort -i file.bin [--bits 32|64] [--algo dtsort|plis|ips2ra|lsd|plss|ips4o]
//        [--verify] [--stats] [-o out.bin]
//        Sort a dataset file; optionally verify, print work stats, write out.
//   bench -i file.bin [--bits 32|64] [--reps R]
//        Time every algorithm on the file and print a comparison table.
//
// File format: u64 record count, u32 key bits, then packed kv32/kv64
// records (key, value). A file whose size disagrees with its header is
// rejected (exit 1) before any record is allocated.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "dovetail/core/sort_stats.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/util/algorithms.hpp"
#include "dovetail/util/record.hpp"
#include "dovetail/util/timer.hpp"

namespace {

using namespace dovetail;
namespace gen = dovetail::gen;

struct args_map {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;

  [[nodiscard]] const char* get(const std::string& key,
                                const char* dflt = nullptr) const {
    for (const auto& [k, v] : options)
      if (k == key) return v.c_str();
    return dflt;
  }
};

bool is_flag(const std::string& key) {
  return key == "verify" || key == "stats";
}

args_map parse_args(int argc, char** argv) {
  args_map out;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0 || (a.size() == 2 && a[0] == '-')) {
      std::string key = a.substr(a.rfind('-') + 1);
      if (is_flag(key)) {
        out.options.emplace_back(key, "1");
      } else {
        std::string val = i + 1 < argc ? argv[i + 1] : "";
        out.options.emplace_back(key, val);
        ++i;
      }
    } else {
      out.positional.push_back(a);
    }
  }
  return out;
}

bool parse_dist(const std::string& s, gen::distribution& out) {
  // The shared name lookup (case-insensitive families, per-failure error
  // messages — the same catalog bench_suite --list prints).
  std::string err;
  const auto d = gen::find_distribution(s, &err);
  if (!d.has_value()) {
    std::fprintf(stderr, "bad --dist: %s\n", err.c_str());
    return false;
  }
  out = *d;
  return true;
}

// Accepts the display name ("IPS2Ra") or its lowercase form ("ips2ra").
bool parse_algo(const std::string& s, algo& out) {
  for (algo a : all_parallel_algos()) {
    const std::string name = algo_name(a);
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (s == name || s == lower) {
      out = a;
      return true;
    }
  }
  return false;
}

template <typename Rec>
bool write_file(const std::string& path, std::span<const Rec> recs,
                std::uint32_t key_bits) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const std::uint64_t n = recs.size();
  f.write(reinterpret_cast<const char*>(&n), sizeof(n));
  f.write(reinterpret_cast<const char*>(&key_bits), sizeof(key_bits));
  f.write(reinterpret_cast<const char*>(recs.data()),
          static_cast<std::streamsize>(n * sizeof(Rec)));
  return static_cast<bool>(f);
}

bool read_header(std::ifstream& f, std::uint64_t& n, std::uint32_t& bits) {
  f.read(reinterpret_cast<char*>(&n), sizeof(n));
  f.read(reinterpret_cast<char*>(&bits), sizeof(bits));
  return static_cast<bool>(f) && (bits == 32 || bits == 64);
}

// Reads the n records that follow the 12-byte header. Fails (false) when
// the file does not hold exactly 12 + n * sizeof(Rec) bytes or the read
// comes up short — checked before allocating, so a corrupt count cannot
// request an absurd buffer.
template <typename Rec>
bool read_records(std::ifstream& f, std::uint64_t n, std::vector<Rec>& recs) {
  constexpr std::uint64_t kHeaderBytes =
      sizeof(std::uint64_t) + sizeof(std::uint32_t);
  const std::streampos pos = f.tellg();
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  f.seekg(pos);
  if (!f || size < static_cast<std::streamoff>(kHeaderBytes)) return false;
  // payload == n * sizeof(Rec), phrased so a huge n cannot overflow.
  const std::uint64_t payload =
      static_cast<std::uint64_t>(size) - kHeaderBytes;
  if (payload % sizeof(Rec) != 0 || payload / sizeof(Rec) != n) return false;
  recs.resize(n);
  f.read(reinterpret_cast<char*>(recs.data()),
         static_cast<std::streamsize>(n * sizeof(Rec)));
  return static_cast<bool>(f);
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  dtsort gen  --dist unif-1e5|exp-5|zipf-1.2|bexp-100 --n N\n"
      "              [--bits 32|64] [--seed S] -o file.bin\n"
      "  dtsort sort -i file.bin [--algo dtsort|plis|ips2ra|lsd|plss|ips4o]\n"
      "              [--verify] [--stats] [-o out.bin]\n"
      "  dtsort bench -i file.bin [--reps R]\n");
  return 2;
}

template <typename Rec, typename KeyFn>
int do_sort(std::vector<Rec> recs, const KeyFn& key, const args_map& args,
            std::uint32_t bits) {
  algo a = algo::dtsort;
  if (const char* s = args.get("algo"); s != nullptr && !parse_algo(s, a)) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", s);
    return 2;
  }
  sort_stats st;
  timer t;
  if (a == algo::dtsort && args.get("stats") != nullptr) {
    sort_options opt;
    opt.stats = &st;
    dovetail_sort(std::span<Rec>(recs), key, opt);
  } else {
    run_sorter(a, std::span<Rec>(recs), key);
  }
  const double secs = t.seconds();
  std::printf("%s: sorted %zu records (%u-bit keys) in %.3fs (%.1f M/s)\n",
              algo_name(a), recs.size(), bits, secs,
              static_cast<double>(recs.size()) / secs / 1e6);
  if (args.get("stats") != nullptr && a == algo::dtsort) {
    const double n = static_cast<double>(recs.size());
    std::printf("  levels=%.2f heavy=%.1f%% base=%.1f%% depth=%llu\n",
                static_cast<double>(st.distributed_records.load()) / n,
                100.0 * static_cast<double>(st.heavy_records.load()) / n,
                100.0 * static_cast<double>(st.base_case_records.load()) / n,
                static_cast<unsigned long long>(st.max_depth.load()));
  }
  if (args.get("verify") != nullptr) {
    for (std::size_t i = 1; i < recs.size(); ++i) {
      if (key(recs[i - 1]) > key(recs[i])) {
        std::printf("  VERIFY FAILED at %zu\n", i);
        return 1;
      }
    }
    std::printf("  verified sorted\n");
  }
  if (const char* out = args.get("o"); out != nullptr) {
    if (!write_file<Rec>(out, recs, bits)) {
      std::fprintf(stderr, "cannot write %s\n", out);
      return 1;
    }
    std::printf("  wrote %s\n", out);
  }
  return 0;
}

template <typename Rec, typename KeyFn>
int do_bench(const std::vector<Rec>& recs, const KeyFn& key,
             const args_map& args, std::uint32_t bits) {
  const int reps = std::max(1, std::atoi(args.get("reps", "3")));
  std::printf("benchmarking %zu records (%u-bit keys), %d reps, %d threads\n",
              recs.size(), bits, reps, par::num_workers());
  std::vector<Rec> work(recs.size());
  for (algo a : all_parallel_algos()) {
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
      std::copy(recs.begin(), recs.end(), work.begin());
      timer t;
      run_sorter(a, std::span<Rec>(work), key);
      times.push_back(t.seconds());
    }
    std::sort(times.begin(), times.end());
    std::printf("  %-8s %.3fs\n", algo_name(a), times[times.size() / 2]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const args_map args = parse_args(argc, argv);

  if (cmd == "gen") {
    gen::distribution d{};
    const char* ds = args.get("dist");
    const char* ns = args.get("n");
    const char* out = args.get("o");
    if (ds == nullptr || ns == nullptr || out == nullptr ||
        !parse_dist(ds, d))
      return usage();
    const auto n = static_cast<std::size_t>(std::strtod(ns, nullptr));
    const auto seed =
        static_cast<std::uint64_t>(std::strtoull(args.get("seed", "1"),
                                                 nullptr, 10));
    const int bits = std::atoi(args.get("bits", "32"));
    bool ok = false;
    if (bits == 32) {
      auto recs = gen::generate_records<dovetail::kv32>(d, n, seed);
      ok = write_file<dovetail::kv32>(out, recs, 32);
    } else if (bits == 64) {
      auto recs = gen::generate_records<dovetail::kv64>(d, n, seed);
      ok = write_file<dovetail::kv64>(out, recs, 64);
    } else {
      return usage();
    }
    if (!ok) {
      std::fprintf(stderr, "cannot write %s\n", out);
      return 1;
    }
    std::printf("wrote %zu %d-bit records (%s) to %s\n", n, bits, ds, out);
    return 0;
  }

  if (cmd == "sort" || cmd == "bench") {
    const char* in = args.get("i");
    if (in == nullptr) return usage();
    std::ifstream f(in, std::ios::binary);
    std::uint64_t n = 0;
    std::uint32_t bits = 0;
    if (!f || !read_header(f, n, bits)) {
      std::fprintf(stderr, "cannot read %s\n", in);
      return 1;
    }
    const auto run = [&](auto rec_tag, const auto& key) {
      using Rec = decltype(rec_tag);
      std::vector<Rec> recs;
      if (!read_records<Rec>(f, n, recs)) {
        std::fprintf(stderr,
                     "%s: header says %llu %u-bit records but the file "
                     "size does not match (truncated or corrupt)\n",
                     in, static_cast<unsigned long long>(n), bits);
        return 1;
      }
      return cmd == "sort" ? do_sort(std::move(recs), key, args, bits)
                           : do_bench(recs, key, args, bits);
    };
    return bits == 32 ? run(dovetail::kv32{}, dovetail::key_of_kv32)
                      : run(dovetail::kv64{}, dovetail::key_of_kv64);
  }

  return usage();
}
