// Ablation scenarios (Sec 6.3 of the paper):
//   fig4ab — heavy-key detection on vs off ("DTSort" vs "Plain"), the
//            lightest and heaviest instance per family, both key widths.
//   fig4cd — the merge step: DTMerge vs the standard parallel merge
//            ("PLMerge") vs merge skipped entirely ("Others"; output is
//            intentionally not fully sorted, so only the permutation
//            property is checked).
//   params — digit width γ and base-case θ sweeps around the theory-guided
//            defaults, plus the overflow-bucket toggle (Sec 4 / Sec 3.5).
#pragma once

#include "dovetail/core/dovetail_sort.hpp"
#include "harness.hpp"

namespace dtb {

template <typename Rec, typename KeyFn>
auto dtsort_opt_fn(dovetail::sort_options opt, KeyFn key) {
  return [opt, key](std::span<Rec> s, dovetail::sort_stats* st,
                    dovetail::sort_workspace* ws) {
    dovetail::sort_options o = opt;
    o.stats = st;
    o.workspace = ws;
    dovetail::dovetail_sort(s, key, o);
  };
}

template <typename Rec, typename KeyFn>
void register_dtsort_variant(const run_config& cfg, const std::string& bench,
                             const std::string& paper,
                             const dovetail::gen::distribution& d,
                             const dovetail::sort_options& opt,
                             const std::string& variant,
                             const char* width_tag, KeyFn key,
                             bool order_check = true) {
  scenario s;
  s.bench = bench;
  s.name = bench + "/" + width_tag + "bit/" + d.name + "/" + variant;
  s.paper = paper;
  s.row = d.name + std::string("/") + width_tag;
  s.col = variant;
  s.labels = {{"dist", d.name},
              {"algo", variant},
              {"width", width_tag}};
  const std::size_t n = cfg.n;
  s.run = [d, n, opt, key, order_check](const run_config& rc) {
    const auto& input = cached_input<Rec>(d, n);
    timed_sort_spec spec;
    spec.check.order = order_check;
    spec.check.stable = order_check;
    return run_timed_sort(rc, input, dtsort_opt_fn<Rec>(opt, key), spec);
  };
  scenario_registry::instance().add(std::move(s));
}

inline void register_ablation_scenarios(const run_config& cfg) {
  using dovetail::gen::dist_kind;
  using dovetail::gen::distribution;

  // --- Fig 4(a,b): heavy-key detection ---
  static const std::vector<distribution> ab_instances = {
      {dist_kind::uniform, 1e9, "Unif-1e9"}, {dist_kind::uniform, 10, "Unif-10"},
      {dist_kind::exponential, 1, "Exp-1"},  {dist_kind::exponential, 10, "Exp-10"},
      {dist_kind::zipfian, 0.6, "Zipf-0.6"}, {dist_kind::zipfian, 1.5, "Zipf-1.5"},
      {dist_kind::bexp, 10, "BExp-10"},      {dist_kind::bexp, 300, "BExp-300"},
  };
  dovetail::sort_options detect, plain;
  plain.detect_heavy = false;
  const char* ab_paper = "Fig 4(a,b): heavy-key detection ablation";
  for (const auto& d : ab_instances) {
    register_dtsort_variant<dovetail::kv32>(cfg, "fig4ab", ab_paper, d,
                                            detect, "DTSort", "32",
                                            dovetail::key_of_kv32);
    register_dtsort_variant<dovetail::kv32>(cfg, "fig4ab", ab_paper, d, plain,
                                            "Plain", "32",
                                            dovetail::key_of_kv32);
    register_dtsort_variant<dovetail::kv64>(cfg, "fig4ab", ab_paper, d,
                                            detect, "DTSort", "64",
                                            dovetail::key_of_kv64);
    register_dtsort_variant<dovetail::kv64>(cfg, "fig4ab", ab_paper, d, plain,
                                            "Plain", "64",
                                            dovetail::key_of_kv64);
  }

  // --- Fig 4(c,d): the merge step ---
  static const std::vector<distribution> cd_instances = {
      {dist_kind::uniform, 1e3, "Unif-1e3"},
      {dist_kind::exponential, 1, "Exp-1"},
      {dist_kind::exponential, 10, "Exp-10"},
      {dist_kind::zipfian, 0.6, "Zipf-0.6"},
      {dist_kind::zipfian, 1.5, "Zipf-1.5"},
      {dist_kind::bexp, 10, "BExp-10"},
      {dist_kind::bexp, 300, "BExp-300"},
  };
  dovetail::sort_options dtm, plm, none;
  plm.use_dt_merge = false;
  none.ablate_skip_merge = true;
  const char* cd_paper =
      "Fig 4(c,d): merging ablation (Others = merge skipped, not a sort)";
  for (const auto& d : cd_instances) {
    register_dtsort_variant<dovetail::kv32>(cfg, "fig4cd", cd_paper, d, dtm,
                                            "DTMerge", "32",
                                            dovetail::key_of_kv32);
    register_dtsort_variant<dovetail::kv32>(cfg, "fig4cd", cd_paper, d, plm,
                                            "PLMerge", "32",
                                            dovetail::key_of_kv32);
    register_dtsort_variant<dovetail::kv32>(cfg, "fig4cd", cd_paper, d, none,
                                            "Others", "32",
                                            dovetail::key_of_kv32,
                                            /*order_check=*/false);
    register_dtsort_variant<dovetail::kv64>(cfg, "fig4cd", cd_paper, d, dtm,
                                            "DTMerge", "64",
                                            dovetail::key_of_kv64);
    register_dtsort_variant<dovetail::kv64>(cfg, "fig4cd", cd_paper, d, plm,
                                            "PLMerge", "64",
                                            dovetail::key_of_kv64);
    register_dtsort_variant<dovetail::kv64>(cfg, "fig4cd", cd_paper, d, none,
                                            "Others", "64",
                                            dovetail::key_of_kv64,
                                            /*order_check=*/false);
  }

  // --- Parameter ablation: γ, θ, overflow buckets ---
  static const std::vector<distribution> param_instances = {
      {dist_kind::uniform, 1e9, "Unif-1e9"},
      {dist_kind::zipfian, 1.2, "Zipf-1.2"},
  };
  const char* pp = "Sec 4/6: parameter selection (γ, θ, overflow buckets)";
  for (const auto& d : param_instances) {
    for (int gamma : {4, 6, 8, 10, 12}) {
      dovetail::sort_options o;
      o.gamma = gamma;
      register_dtsort_variant<dovetail::kv32>(cfg, "params", pp, d, o,
                                              "g=" + std::to_string(gamma),
                                              "32", dovetail::key_of_kv32);
    }
    for (int logt : {8, 11, 14, 16}) {
      dovetail::sort_options o;
      o.base_case = std::size_t{1} << logt;
      register_dtsort_variant<dovetail::kv32>(cfg, "params", pp, d, o,
                                              "t=2^" + std::to_string(logt),
                                              "32", dovetail::key_of_kv32);
    }
    // kv64 θ arm around the 2^16 default: 2^16 kv64 records are 1 MB, the
    // size the radix base case was fitted to (docs/TUNING.md).
    for (int logt = 12; logt <= 18; ++logt) {
      dovetail::sort_options o;
      o.base_case = std::size_t{1} << logt;
      register_dtsort_variant<dovetail::kv64>(cfg, "params", pp, d, o,
                                              "t=2^" + std::to_string(logt),
                                              "64", dovetail::key_of_kv64);
    }
    dovetail::sort_options nooverflow;
    nooverflow.skip_leading_bits = false;
    register_dtsort_variant<dovetail::kv32>(cfg, "params", pp, d, nooverflow,
                                            "no-ovf", "32",
                                            dovetail::key_of_kv32);
    register_dtsort_variant<dovetail::kv32>(cfg, "params", pp, d, {},
                                            "default", "32",
                                            dovetail::key_of_kv32);
  }
}

}  // namespace dtb
