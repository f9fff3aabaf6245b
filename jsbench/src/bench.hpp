#pragma once

/// \file bench.hpp
/// Shared pieces of the repository benchmark: command-line arguments, the
/// metric catalog and result report, the output checks against the dense
/// serial references, and the ladder's kernel-grind rung.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace jsbench {

/// Command-line arguments of one benchmark invocation.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< length of the measured solve loop
  bool trace = false;     ///< per-layer run (spans, counters, ladder)
  bool quick = false;     ///< tiny problem sizes, one setup and one solve
  /// Negative control: perturb one reference value by 1e-9 (relative) so
  /// the output checks must fail.
  bool perturb_reference = false;
  std::string out_dir = ".bench_build/results";
  std::string git_sha = "unknown";
};

/// One metric of BENCHMARK.json: name, unit, and whether it is an
/// end-to-end metric (untraced run) or a per-layer one (traced run).
struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

/// Every metric the benchmark reports, in print order.
const std::vector<MetricDef>& metric_catalog();

/// Metrics, solve counts and failed checks of one invocation.
class Report {
 public:
  /// Set a metric; throws on a name outside the catalog.
  void set(const std::string& name, double value);
  /// Record a failed output check of the current solve.
  void fail(const std::string& what) { failures.push_back(what); }

  /// Print `name value unit` for every metric of the run's kind (unset
  /// per-layer metrics of layers the workload does not reach print 0),
  /// write the full result file, and print the one-line JSON result last.
  void emit(const Args& args) const;

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> setup_seconds;  ///< every set-up, for the result file
  std::vector<double> solve_seconds;  ///< every measured solve
  std::string reference;  ///< one-line summary of the serial reference

 private:
  std::map<std::string, double> values_;
};

// --- statistics and host ----------------------------------------------------

/// Median (mean of the two middle values for even sizes); 0 when empty.
double median(std::vector<double> v);
/// Process high-water resident set size in MB.
double peak_rss_mb();
/// Uniform double in [0, 1) derived from `seed` and a per-use `stream`.
double seed_uniform(std::uint64_t seed, std::uint64_t stream);

/// Whether to run another set-up: at least 3 (1 at --quick size) and until
/// 2 s of set-up time have been spent, at most 21, so that the reported
/// median rests on several samples even when one set-up is short.
bool more_setups(const std::vector<double>& setup_s, bool quick);

// --- output checks ----------------------------------------------------------

/// Empty when every `got[i]` matches `ref[i]` within `rel_tol` relative to
/// |ref[i]| (exact zeros must match exactly); otherwise a diagnostic.
std::string compare_values(const std::string& what,
                           const std::vector<double>& got,
                           const std::vector<double>& ref, double rel_tol);
/// Empty when every value is ≥ 0 and finite; otherwise a diagnostic.
std::string check_nonnegative(const std::string& what,
                              const std::vector<double>& v);
/// Scale the largest-magnitude entry by (1 + 1e-9): the negative control.
void perturb_largest(std::vector<double>& v);

// --- workloads --------------------------------------------------------------

/// Relative tolerance of the parallel-vs-serial-reference agreement.
inline constexpr double kAgreement = 1e-12;

void run_kobayashi_s8(const Args& args, Report& report, SpanLog* log);
void run_swirled_2rank(const Args& args, Report& report, SpanLog* log);
void run_core_keff_4g(const Args& args, Report& report, SpanLog* log);

}  // namespace jsbench
