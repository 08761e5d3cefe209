#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <vector>

#include "inputs.hpp"
#include "json.hpp"
#include "metrics.hpp"

namespace bench {

namespace {

struct Run {
  double seed = 0;
  Json metrics;
  std::string plan;  ///< the result file's plan, as text
  std::string path;
};

/// workload -> runs, from every untraced, full-size result file in `dir`.
using Runs = std::map<std::string, std::vector<Run>>;

/// A plan object as "key=value;..." (keys sorted), for equality tests.
std::string plan_text(const Json* plan) {
  std::string text;
  if (plan == nullptr) return text;
  for (const auto& [key, value] : plan->object) {
    char number[32];
    std::snprintf(number, sizeof(number), "%.17g", value.number);
    text += key + "=" + number + ";";
  }
  return text;
}

bool load_runs(const std::string& dir, Runs* runs) {
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec))
    if (e.path().extension() == ".json") files.push_back(e.path());
  if (ec) {
    std::fprintf(stderr, "--compare: cannot list %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  for (const auto& path : files) {
    Json doc;
    std::string error;
    if (!read_json_file(path.string(), &doc, &error)) {
      std::fprintf(stderr, "--compare: %s\n", error.c_str());
      return false;
    }
    const Json* workload = doc.find("workload");
    const Json* trace = doc.find("trace");
    const Json* smoke = doc.find("smoke");
    const Json* seed = doc.find("seed");
    const Json* metrics = doc.find("metrics");
    if (workload == nullptr || metrics == nullptr || seed == nullptr) continue;
    if ((trace != nullptr && trace->boolean) || (smoke != nullptr && smoke->boolean))
      continue;
    (*runs)[workload->string].push_back(
        {seed->number, *metrics, plan_text(doc.find("plan")), path.string()});
  }
  for (auto& [name, list] : *runs)
    std::sort(list.begin(), list.end(),
              [](const Run& a, const Run& b) { return a.seed < b.seed; });
  return true;
}

/// False, naming two files, when the runs do not share one plan: runs
/// of different sizes or trial lengths are not comparable.
bool same_plan(const std::vector<Run>& a, const std::vector<Run>& b) {
  const Run& first = a.front();
  for (const std::vector<Run>* side : {&a, &b})
    for (const Run& r : *side)
      if (r.plan != first.plan) {
        std::fprintf(stderr,
                     "--compare: %s and %s were run with different plans "
                     "(sizes, trial lengths or counts); rerun one side\n",
                     first.path.c_str(), r.path.c_str());
        return false;
      }
  return true;
}

std::vector<double> values_of(const std::vector<Run>& runs,
                              const std::string& metric) {
  std::vector<double> out;
  for (const Run& r : runs)
    if (const Json* m = r.metrics.find(metric))
      if (const Json* v = m->find("value"); v && v->type == Json::Type::kNumber)
        out.push_back(v->number);
  return out;
}

double relative_spread(const Quartiles& q) {
  return q.median != 0 ? (q.q3 - q.q1) / std::fabs(q.median) : q.q3 - q.q1;
}

}  // namespace

int compare_results(const std::string& baseline_dir,
                    const std::string& candidate_dir, const Declared& declared) {
  Runs a, b;
  if (!load_runs(baseline_dir, &a) || !load_runs(candidate_dir, &b)) return 2;
  for (const auto& [workload, runs] : a)
    if (const auto other = b.find(workload);
        other != b.end() && !same_plan(runs, other->second))
      return 2;

  std::printf("A = %s, B = %s (runs paired in seed order)\n",
              baseline_dir.c_str(), candidate_dir.c_str());
  std::printf("%-13s %-19s %-9s %12s %25s %12s %25s %6s %7s  %s\n", "workload",
              "metric", "unit", "median A", "[q1, q3] A", "median B",
              "[q1, q3] B", "bound", "wins A/B", "verdict");
  int regressions = 0;
  for (const WorkloadSpec& w : all_workloads()) {
    const auto ra = a.find(w.name);
    const auto rb = b.find(w.name);
    if (ra == a.end() || rb == b.end()) continue;
    for (const MetricDef& m : kEndToEnd) {
      const std::vector<double> va = values_of(ra->second, m.name);
      const std::vector<double> vb = values_of(rb->second, m.name);
      if (va.empty() || vb.empty()) continue;
      const auto declared_bound = declared.bounds.find(m.name);
      const bool gated = declared_bound != declared.bounds.end();
      const double bound = gated ? declared_bound->second : 0;
      const Quartiles qa = quartiles(va), qb = quartiles(vb);
      // Signed so that positive means B is better.
      const auto gain = [&](double from, double to) {
        return m.higher_is_better ? to - from : from - to;
      };
      std::size_t wins_a = 0, wins_b = 0;
      for (std::size_t i = 0; i < std::min(va.size(), vb.size()); ++i) {
        wins_a += gain(va[i], vb[i]) < 0;
        wins_b += gain(va[i], vb[i]) > 0;
      }
      const std::size_t pairs = std::min(va.size(), vb.size());
      const auto [a_lo, a_hi] = std::minmax_element(va.begin(), va.end());
      const auto [b_lo, b_hi] = std::minmax_element(vb.begin(), vb.end());
      // Every B run better (worse) than every A run.
      const bool b_beats_all = m.higher_is_better ? *b_lo > *a_hi : *b_hi < *a_lo;
      const bool a_beats_all = m.higher_is_better ? *a_lo > *b_hi : *a_hi < *b_lo;
      const double change =
          qa.median != 0 ? gain(qa.median, qb.median) / std::fabs(qa.median)
                         : gain(qa.median, qb.median);

      const char* verdict = "within bound";
      if (!gated) {
        verdict = "not gated";
      } else if (std::max(relative_spread(qa), relative_spread(qb)) > bound &&
                 bound > 0) {
        verdict = b_beats_all                      ? "improved"
                  : a_beats_all && change < -bound ? "regressed"
                                                   : "unresolved";
      } else if (change < -bound) {
        verdict = "regressed";
      } else if (change > bound && wins_b * 10 >= pairs * 9 &&
                 std::fabs(qb.median - qa.median) > qa.q3 - qa.q1) {
        verdict = "improved";
      }
      regressions += verdict[0] == 'r';
      char qa_text[64], qb_text[64], bound_text[16] = "-";
      std::snprintf(qa_text, sizeof(qa_text), "[%.4g, %.4g]", qa.q1, qa.q3);
      std::snprintf(qb_text, sizeof(qb_text), "[%.4g, %.4g]", qb.q1, qb.q3);
      if (gated) std::snprintf(bound_text, sizeof(bound_text), "%.2f", bound);
      std::printf("%-13s %-19s %-9s %12.5g %25s %12.5g %25s %6s %3zu/%-3zu  %s\n",
                  w.name, m.name, m.unit, qa.median, qa_text, qb.median, qb_text,
                  bound_text, wins_a, wins_b, verdict);
    }
  }
  return regressions > 0 ? 1 : 0;
}

}  // namespace bench
