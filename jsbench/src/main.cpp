// jsbench — the repository benchmark driver. Runs one workload, checks every
// solve against the dense serial reference, and prints each metric as
// `name value unit` followed by a one-line JSON result:
//
//   jsbench --workload kobayashi-s8 --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// records spans around every layer call and reports the per-layer metrics
// and the sweep ladder. --quick shrinks every problem to a smoke size and
// --perturb-reference perturbs one reference value by 1e-9 (the negative
// control: the run must then fail). Normally started by jsbench/run.py,
// which builds this binary first.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using namespace jsbench;

int usage() {
  std::fprintf(stderr,
               "usage: jsbench --workload kobayashi-s8|swirled-2rank|"
               "core-keff-4g --seed N --seconds S --trace 0|1 [--quick] "
               "[--perturb-reference] [--out-dir DIR] [--git-sha SHA]\n");
  return 2;
}

bool parse_number(const char* text, double& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtod(text, &end);
  return *text != '\0' && *end == '\0' && errno == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    double v = 0.0;
    if (a == "--quick") {
      args.quick = true;
    } else if (a == "--perturb-reference") {
      args.perturb_reference = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else if (a == "--git-sha" && has_value) {
      args.git_sha = argv[++i];
    } else if (a == "--seed" && has_value && parse_number(argv[i + 1], v) &&
               v >= 0.0) {
      args.seed = static_cast<std::uint64_t>(v);
      ++i;
    } else if (a == "--seconds" && has_value && parse_number(argv[i + 1], v) &&
               v > 0.0) {
      args.seconds = v;
      ++i;
    } else if (a == "--trace" && has_value && parse_number(argv[i + 1], v) &&
               (v == 0.0 || v == 1.0)) {
      args.trace = v == 1.0;
      ++i;
    } else {
      std::fprintf(stderr, "jsbench: bad argument '%s'\n", a.c_str());
      return usage();
    }
  }

  void (*run)(const Args&, Report&, SpanLog*) = nullptr;
  if (args.workload == "kobayashi-s8") run = run_kobayashi_s8;
  if (args.workload == "swirled-2rank") run = run_swirled_2rank;
  if (args.workload == "core-keff-4g") run = run_core_keff_4g;
  if (run == nullptr) {
    std::fprintf(stderr, "jsbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return usage();
  }

  Report report;
  SpanLog spans;
  try {
    run(args, report, args.trace ? &spans : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jsbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (args.trace) {
    const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-spans.json";
    if (!spans.write_json(path))
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }
  report.emit(args);
  return report.failures.empty() ? 0 : 1;
}
