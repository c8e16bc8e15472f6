// Graph transpose example (the paper's first application, Sec 6.2).
// Generates a power-law graph (skewed in-degrees = heavy duplicate keys),
// transposes it with DovetailSort and with the plain MSD radix baseline,
// verifies the results agree, and reports timings.
//   ./build/examples/graph_transpose [num_edges]
#include <cstdio>
#include <cstdlib>

#include "dovetail/dovetail.hpp"

namespace app = dovetail::app;
namespace gen = dovetail::gen;

int main(int argc, char** argv) {
  const std::size_t m = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                 : 5'000'000;
  const auto v = static_cast<std::uint32_t>(std::max<std::size_t>(
      1000, m / 16));
  std::printf("Graph transpose: |V|=%u, |E|=%zu, threads=%d\n", v, m,
              dovetail::par::num_workers());

  constexpr auto dt = [](auto span, auto key) {
    dovetail::dovetail_sort(span, key);
  };
  constexpr auto plis = [](auto span, auto key) {
    dovetail::run_sorter(dovetail::algo::plis, span, key);
  };

  auto g = app::build_csr(v, gen::powerlaw_graph(v, m, 1.2), dt);
  std::printf("  max in-degree hint: power-law(1.2) destinations\n");

  dovetail::timer t1;
  auto gt_dt = app::transpose(g, dt);
  const double dt_time = t1.seconds();

  dovetail::timer t2;
  auto gt_plis = app::transpose(g, plis);
  const double plis_time = t2.seconds();

  const bool agree = gt_dt.offsets == gt_plis.offsets &&
                     gt_dt.targets == gt_plis.targets;
  std::printf("  DTSort transpose: %.3fs\n", dt_time);
  std::printf("  PLIS   transpose: %.3fs\n", plis_time);
  std::printf("  results agree: %s\n", agree ? "yes" : "NO (bug!)");

  // Round-trip sanity: (G^T)^T has the same edge count and degrees as G.
  auto gtt = app::transpose(gt_dt, dt);
  std::printf("  round-trip edges: %zu (expected %zu)\n", gtt.num_edges(),
              g.num_edges());
  return agree ? 0 : 1;
}
