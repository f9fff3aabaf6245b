#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace jsbench {

const std::vector<MetricDef>& metric_catalog() {
  static const std::vector<MetricDef> catalog = {
      // End-to-end (untraced run).
      {"setup_s", "s", true},
      {"solve_s", "s", true},
      {"sweep_rate", "cell-angle-grp/s", true},
      {"peak_rss_mb", "MB", true},
      // mesh, partition
      {"mesh.build_s", "s", false},
      {"partition.build_s", "s", false},
      // sweep plan (+ graph)
      {"plan.build_s", "s", false},
      {"plan.task_data", "count", false},
      {"plan.programs", "count", false},
      {"plan.cyclic_angles", "count", false},
      {"plan.edges_cut", "count", false},
      // sweep session
      {"session.create_s", "s", false},
      {"sweep.count", "count", false},
      {"sweep.first_s", "s", false},
      {"sweep.p50_s", "s", false},
      {"source_iter.self_s", "s", false},
      {"solve.traced_s", "s", false},
      {"pool.created", "count", false},
      {"pool.reuse_ratio", "ratio", false},
      // core engine
      {"engine.runs", "count", false},
      {"engine.executions", "count", false},
      {"engine.busy_s", "s", false},
      {"engine.idle_s", "s", false},
      {"engine.idle_fraction", "ratio", false},
      {"engine.route_s", "s", false},
      {"engine.streams_local", "count", false},
      {"engine.streams_remote", "count", false},
      {"engine.stream_bytes", "bytes", false},
      {"engine.steals", "count", false},
      {"engine.steal_hit_rate", "ratio", false},
      // comm
      {"comm.messages", "count", false},
      {"comm.control_messages", "count", false},
      {"comm.bytes", "bytes", false},
      // sweep ladder (sn kernels, serial reference, engine rungs)
      {"sn.grind_rate", "cell-angle-grp/s", false},
      {"sn.serial_rate", "cell-angle-grp/s", false},
      {"sn.serial_vs_grind", "ratio", false},
      {"engine.rate_1w", "cell-angle-grp/s", false},
      {"engine.rate_1w_vs_serial", "ratio", false},
      {"engine.rate", "cell-angle-grp/s", false},
      {"engine.rate_vs_1w", "ratio", false},
      {"engine.vs_serial", "ratio", false},
      // sweep eigen + group pipeline
      {"eigen.outers", "count", false},
      {"eigen.group_sweeps", "count", false},
      {"eigen.task_data_built", "count", false},
      {"eigen.group_sweep_s", "s", false},
      {"pipeline.passes", "count", false},
      {"pipeline.activations", "count", false},
      {"pipeline.fill_s", "s", false},
  };
  return catalog;
}

void Report::set(const std::string& name, double value) {
  for (const MetricDef& d : metric_catalog()) {
    if (name == d.name) {
      values_[name] = value;
      return;
    }
  }
  throw std::logic_error("metric not in the catalog: " + name);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::emit(const Args& args) const {
  std::ostringstream metrics;
  metrics << "{";
  bool first = true;
  for (const MetricDef& d : metric_catalog()) {
    if (d.end_to_end == args.trace) continue;
    const auto it = values_.find(d.name);
    const double v = it != values_.end() ? it->second : 0.0;
    std::printf("%s %s %s\n", d.name, number(v).c_str(), d.unit);
    metrics << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
            << number(v) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  metrics << "}";
  const bool correct = failures.empty();
  if (!reference.empty())
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(), reference.c_str());
  for (const std::string& f : failures)
    std::fprintf(stderr, "check failed: %s\n", f.c_str());

  // The full result file: the metrics plus provenance and diagnostics.
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                 "\"seconds\": %s, \"quick\": %s, \"git_sha\": \"%s\", "
                 "\"host_threads\": %u, \"correct\": %s, \"attempted\": "
                 "%lld, \"failed\": %lld, \"failures\": [",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                 number(args.seconds).c_str(), args.quick ? "true" : "false",
                 json_escape(args.git_sha).c_str(),
                 std::thread::hardware_concurrency(),
                 correct ? "true" : "false",
                 static_cast<long long>(attempted),
                 static_cast<long long>(failed));
    for (std::size_t i = 0; i < failures.size(); ++i)
      std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "",
                   json_escape(failures[i]).c_str());
    std::fprintf(f, "], \"reference\": \"%s\"",
                 json_escape(reference).c_str());
    for (const auto& [key, list] :
         {std::pair{"setup_seconds", &setup_seconds},
          std::pair{"solve_seconds", &solve_seconds}}) {
      std::fprintf(f, ", \"%s\": [", key);
      for (std::size_t i = 0; i < list->size(); ++i)
        std::fprintf(f, "%s%s", i > 0 ? ", " : "", number((*list)[i]).c_str());
      std::fprintf(f, "]");
    }
    std::fprintf(f, ", \"metrics\": %s}\n", metrics.str().c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.str().c_str());
  std::fflush(stdout);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool more_setups(const std::vector<double>& setup_s, bool quick) {
  if (quick) return setup_s.empty();
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 2.0 && setup_s.size() < 21);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double seed_uniform(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): a fixed, portable mapping.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
                    0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

std::string compare_values(const std::string& what,
                           const std::vector<double>& got,
                           const std::vector<double>& ref, double rel_tol) {
  if (got.size() != ref.size())
    return what + ": size " + std::to_string(got.size()) + " vs reference " +
           std::to_string(ref.size());
  double worst = 0.0;
  std::size_t at = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double diff = std::abs(got[i] - ref[i]);
    if (diff == 0.0) continue;
    const double rel = ref[i] != 0.0 ? diff / std::abs(ref[i]) : INFINITY;
    if (!(rel <= worst)) {
      worst = rel;
      at = i;
    }
  }
  if (worst <= rel_tol) return {};
  std::ostringstream os;
  os.precision(17);
  os << what << ": entry " << at << " is " << got[at] << ", reference "
     << ref[at] << " (relative difference " << worst << " > " << rel_tol
     << ")";
  return os.str();
}

std::string check_nonnegative(const std::string& what,
                              const std::vector<double>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!(v[i] >= 0.0) || !std::isfinite(v[i])) {
      std::ostringstream os;
      os.precision(17);
      os << what << ": entry " << i << " is " << v[i];
      return os.str();
    }
  }
  return {};
}

void perturb_largest(std::vector<double>& v) {
  if (v.empty()) return;
  std::size_t at = 0;
  for (std::size_t i = 1; i < v.size(); ++i)
    if (std::abs(v[i]) > std::abs(v[at])) at = i;
  v[at] *= 1.0 + 1e-9;
}

}  // namespace jsbench
