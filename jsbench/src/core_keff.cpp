// core-keff-4g: k-eigenvalue power iteration on a structured box — a
// fissile core in the low corner inside a scattering reflector, the three
// low sides reflecting (one eighth of a symmetric core), 4 downscatter
// groups, S4, 1 rank x 3 workers. Every solve goes through
// sweep::solve_k_eigenvalue on one shared plan and is checked against
// sweep::solve_k_eigenvalue_serial over dense per-group serial sweepers.

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "comm/cluster.hpp"
#include "ladder.hpp"
#include "mesh/generators.hpp"
#include "metrics/metrics.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/patch_set.hpp"
#include "sn/boundary.hpp"
#include "sn/fission.hpp"
#include "sn/multigroup.hpp"
#include "sn/serial_sweep.hpp"
#include "support/timer.hpp"
#include "sweep/eigen.hpp"
#include "sweep/plan.hpp"
#include "sweep/session.hpp"
#include "sweep/sweep_data.hpp"

namespace jsbench {
namespace {

using namespace jsweep;

constexpr int kGroups = 4;

/// Group constants (1/cm) of the two materials. Scattering is within-group
/// plus downscatter to the next group; fission is born in groups 0 and 1.
struct GroupXs {
  double sigma_t[kGroups];
  double within[kGroups];
  double down[kGroups];  ///< g -> g+1 (last entry unused)
  double nu_sigma_f[kGroups];
};
constexpr GroupXs kCore = {{0.25, 0.40, 0.60, 0.90},
                           {0.10, 0.15, 0.20, 0.30},
                           {0.06, 0.10, 0.15, 0.0},
                           {0.020, 0.080, 0.250, 0.900}};
constexpr GroupXs kReflector = {{0.30, 0.45, 0.70, 1.10},
                                {0.12, 0.18, 0.30, 0.55},
                                {0.08, 0.10, 0.12, 0.0},
                                {0.0, 0.0, 0.0, 0.0}};
constexpr double kChi[kGroups] = {0.7, 0.3, 0.0, 0.0};

struct Problem {
  std::unique_ptr<mesh::StructuredMesh> mesh;
  std::unique_ptr<partition::PatchSet> patches;
  std::unique_ptr<sn::MultigroupXs> xs;  ///< the plan's; sources rewritten
  std::unique_ptr<sn::FissionXs> fission;
  sn::BoundarySpec bc;
  std::unique_ptr<sn::StructuredDD> disc;  ///< group-0 geometry carrier
};

struct SolveRep {
  sweep::EigenResult result;
  double seconds = 0.0;
};

/// Sum of one registry family's values over every series whose labels
/// contain (key, value) (an empty key matches all series).
double family_total(const std::vector<metrics::FamilySnapshot>& snap,
                    const std::string& name, const std::string& key = "",
                    const std::string& value = "") {
  double total = 0.0;
  for (const metrics::FamilySnapshot& f : snap) {
    if (f.name != name) continue;
    for (const metrics::SeriesSnapshot& s : f.series) {
      if (!key.empty() &&
          std::find(s.labels.begin(), s.labels.end(),
                    std::make_pair(key, value)) == s.labels.end())
        continue;
      switch (f.kind) {
        case metrics::Kind::kCounter:
          total += static_cast<double>(s.counter_value);
          break;
        case metrics::Kind::kGauge:
          total += s.gauge_value;
          break;
        case metrics::Kind::kHistogram:
          total += s.histogram.sum;
          break;
      }
    }
  }
  return total;
}

}  // namespace

void run_core_keff_4g(const Args& args, Report& report, SpanLog* log) {
  const int n = args.quick ? 8 : 16;
  const int side = 4;
  const double h = 2.0;  // cm per cell
  const int min_reps = args.quick ? 1 : 2;
  const int ladder_passes = 3;  // timed one-pass solves after one warm-up
  // The seed scales every νΣ_f: k scales with it, the flux shape, the
  // work and the iteration counts do not.
  const double fission_scale = 0.9 + 0.2 * seed_uniform(args.seed, 2);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);

  sweep::EigenOptions options;
  options.max_outer_iterations = 200;
  options.k_tolerance = 1e-5;
  options.fission_tolerance = 1e-4;
  options.multigroup.inner = {1e-5, 3, false};

  const auto build_problem = [&](SpanLog* slog) {
    auto p = std::make_shared<Problem>();
    {
      ScopedSpan s(slog, "mesh.build");
      p->mesh = std::make_unique<mesh::StructuredMesh>(
          mesh::make_cube_mesh(n, h * n));
      // Core: the low-corner cube of 3/8 the box side.
      const double core = 0.375 * h * n;
      std::vector<int> mats(static_cast<std::size_t>(p->mesh->num_cells()));
      for (std::int64_t c = 0; c < p->mesh->num_cells(); ++c) {
        const mesh::Vec3 x = p->mesh->cell_center(CellId{c});
        mats[static_cast<std::size_t>(c)] =
            x.x < core && x.y < core && x.z < core ? mesh::kMatCore
                                                   : mesh::kMatReflector;
      }
      p->mesh->set_materials(std::move(mats));
    }
    {
      ScopedSpan s(slog, "partition.build");
      const partition::StructuredBlockLayout layout(p->mesh->dims(),
                                                    {side, side, side});
      const partition::CsrGraph cg = partition::cell_graph(*p->mesh);
      p->patches = std::make_unique<partition::PatchSet>(
          partition::block_partition(layout), layout.num_patches(), &cg);
    }
    {
      ScopedSpan s(slog, "disc.build");
      const std::int64_t cells = p->mesh->num_cells();
      p->xs = std::make_unique<sn::MultigroupXs>(kGroups, cells);
      p->fission = std::make_unique<sn::FissionXs>(kGroups, cells);
      for (int g = 0; g < kGroups; ++g) p->fission->chi(g) = kChi[g];
      for (std::int64_t c = 0; c < cells; ++c) {
        const GroupXs& m =
            p->mesh->materials()[static_cast<std::size_t>(c)] == mesh::kMatCore
                ? kCore
                : kReflector;
        for (int g = 0; g < kGroups; ++g) {
          p->xs->sigma_t(g, c) = m.sigma_t[g];
          p->xs->sigma_s(g, g, c) = m.within[g];
          if (g + 1 < kGroups) p->xs->sigma_s(g, g + 1, c) = m.down[g];
          p->fission->nu_sigma_f(g, c) = fission_scale * m.nu_sigma_f[g];
        }
      }
      p->bc.side(mesh::FaceDir::XLo) = 1.0;
      p->bc.side(mesh::FaceDir::YLo) = 1.0;
      p->bc.side(mesh::FaceDir::ZLo) = 1.0;
      p->disc = std::make_unique<sn::StructuredDD>(
          *p->mesh, p->xs->group_view(0), true, p->bc);
    }
    return p;
  };

  std::shared_ptr<Problem> problem;
  std::vector<double> setup_s;
  std::vector<SolveRep> reps;
  std::int64_t task_data = 0, programs = 0;
  metrics::Registry registry;
  std::vector<double> rung5_times, rung4_times;
  double route_per_pass = 0.0;
  std::int64_t pool_created = 0, pool_acquires = 0, pool_reuses = 0;
  comm::TrafficStats traffic;

  sweep::SolveConfig solve_config;
  solve_config.num_workers = 3;

  comm::Cluster::run(1, [&](comm::Context& ctx) {
    SpanLog* rlog = log;
    std::shared_ptr<const sweep::SweepPlan> plan;
    std::unique_ptr<sweep::SweepSession> session;

    // --- set-up, repeated: mesh + partition + plan build + session ----------
    while (more_setups(setup_s, args.quick)) {
      session.reset();
      plan.reset();
      WallTimer t;
      {
        ScopedSpan setup(rlog, "setup");
        problem = build_problem(rlog);
        const std::int64_t before = sweep::SweepTaskData::total_created();
        sweep::PlanConfig plan_config;
        plan_config.multigroup = problem->xs.get();
        {
          ScopedSpan s(rlog, "plan.build");
          plan = sweep::SweepPlan::build(
              ctx, *problem->mesh, *problem->patches,
              partition::assign_contiguous(problem->patches->num_patches(),
                                           ctx.size()),
              *problem->disc, quad, plan_config);
        }
        task_data = sweep::SweepTaskData::total_created() - before;
        {
          ScopedSpan s(rlog, "session.create");
          session = std::make_unique<sweep::SweepSession>(ctx, plan,
                                                          solve_config);
        }
      }
      setup_s.push_back(t.seconds());
    }
    programs = static_cast<std::int64_t>(plan->programs().size());

    // --- measured solves: power iteration from the flat fission source ------
    sweep::SolveConfig eigen_config = solve_config;
    if (args.trace) eigen_config.metrics.registry = &registry;
    const comm::TrafficStats traffic0 = ctx.traffic();
    WallTimer loop;
    for (int done = 0;;) {
      SolveRep rep;
      WallTimer t;
      {
        ScopedSpan s(rlog, "eigen.solve");
        rep.result = sweep::solve_k_eigenvalue(ctx, plan, *problem->xs,
                                               *problem->fission, options,
                                               eigen_config);
      }
      rep.seconds = t.seconds();
      reps.push_back(std::move(rep));
      ++done;
      if (done >= min_reps && (args.quick || loop.seconds() >= args.seconds))
        break;
    }
    traffic.basic_sent = ctx.traffic().basic_sent - traffic0.basic_sent;
    traffic.control_sent = ctx.traffic().control_sent - traffic0.control_sent;
    traffic.bytes_sent = ctx.traffic().bytes_sent - traffic0.bytes_sent;

    // --- ladder rungs 5 and 4: one-pass multigroup solves on the plan -------
    if (args.trace) {
      sn::MultigroupOptions one_pass;
      one_pass.inner = {0.0, 1, false};
      double route = 0.0;
      rung5_times = time_calls(ctx, ladder_passes + 1, [&] {
        (void)session->solve_multigroup(one_pass);
        route += session->stats().engine.master_route_seconds;
      });
      route_per_pass = route / (ladder_passes + 1);
      pool_created = session->flux_pool().created();
      pool_acquires = session->flux_pool().acquires();
      pool_reuses = session->flux_pool().reuses();
      sweep::SolveConfig one = solve_config;
      one.num_workers = 1;
      sweep::SweepSession s4(ctx, plan, one);
      rung4_times = time_calls(ctx, ladder_passes + 1,
                               [&] { (void)s4.solve_multigroup(one_pass); });
    }
  });
  const double rss = peak_rss_mb();
  const Problem& p = *problem;
  const double cells = static_cast<double>(p.mesh->num_cells());
  const double pass_work = cells * quad.num_angles() * kGroups;

  // --- the dense serial reference, outside every timed region -------------
  sn::MultigroupXs xs_ref = *p.xs;
  const auto group_sweep = [&](int g) -> sn::SweepOperator {
    auto gd = std::make_shared<sn::StructuredDD>(*p.mesh, xs_ref.group_view(g),
                                                 true, p.bc);
    auto sweeper = std::make_shared<sn::StructuredSerialSweeper>(*gd, quad);
    return [gd, sweeper](const std::vector<double>& q) {
      return sweeper->sweep(q);
    };
  };
  sweep::EigenResult ref = sweep::solve_k_eigenvalue_serial(
      xs_ref, *p.fission, *p.disc,
      [&] { return sn::sequential_sweep_pass(xs_ref, group_sweep); }, options);
  {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "serial reference k %.12f, %d outers, %lld group sweeps",
                  ref.k, ref.outer_iterations,
                  static_cast<long long>(ref.stats.transport_sweeps));
    report.reference = line;
  }
  if (args.perturb_reference) perturb_largest(ref.phi[0]);

  // --- checks --------------------------------------------------------------
  if (!ref.converged) report.fail("serial reference did not converge");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const sweep::EigenResult& r = reps[i].result;
    const std::string tag = "solve " + std::to_string(i) + " ";
    std::vector<std::string> bad;
    if (!r.converged) bad.push_back(tag + "did not converge");
    if (r.outer_iterations != ref.outer_iterations)
      bad.push_back(tag + "took " + std::to_string(r.outer_iterations) +
                    " outers, reference " +
                    std::to_string(ref.outer_iterations));
    if (r.stats.transport_sweeps != ref.stats.transport_sweeps)
      bad.push_back(tag + "ran " + std::to_string(r.stats.transport_sweeps) +
                    " group sweeps, reference " +
                    std::to_string(ref.stats.transport_sweeps));
    if (auto m = compare_values(tag + "k", {r.k}, {ref.k}, kAgreement);
        !m.empty())
      bad.push_back(m);
    for (int g = 0; g < kGroups && r.phi.size() == ref.phi.size(); ++g) {
      const std::string what = tag + "phi[g=" + std::to_string(g) + "]";
      const auto gi = static_cast<std::size_t>(g);
      if (auto m = compare_values(what, r.phi[gi], ref.phi[gi], kAgreement);
          !m.empty())
        bad.push_back(m);
      if (auto m = check_nonnegative(what, r.phi[gi]); !m.empty())
        bad.push_back(m);
    }
    if (r.phi.size() != ref.phi.size()) bad.push_back(tag + "group count");
    if (r.stats.task_data_built != 0)
      bad.push_back(tag + "built " + std::to_string(r.stats.task_data_built) +
                    " task data during the solve");
    ++report.attempted;
    if (!bad.empty()) {
      ++report.failed;
      for (auto& m : bad) report.fail(m);
    }
  }

  // --- metrics ---------------------------------------------------------------
  const double sweep_work = cells * quad.num_angles();
  std::vector<double> solve_s, rates;
  double group_sweeps = 0.0, outers = 0.0, solve_total = 0.0;
  for (const SolveRep& r : reps) {
    solve_s.push_back(r.seconds);
    rates.push_back(sweep_work *
                    static_cast<double>(r.result.stats.transport_sweeps) /
                    r.seconds);
    group_sweeps += static_cast<double>(r.result.stats.transport_sweeps);
    outers += r.result.outer_iterations;
    solve_total += r.seconds;
  }
  const double n_reps = static_cast<double>(reps.size());
  report.setup_seconds = setup_s;
  report.solve_seconds = solve_s;
  if (!args.trace) {
    report.set("setup_s", median(setup_s));
    report.set("solve_s", median(solve_s));
    report.set("sweep_rate", median(rates));
    report.set("peak_rss_mb", rss);
    return;
  }

  const auto snap = registry.snapshot();
  const auto per_solve = [&](const std::string& name,
                             const std::string& key = "",
                             const std::string& value = "") {
    return family_total(snap, name, key, value) / n_reps;
  };
  const double runs = per_solve("jsweep_engine_runs_total");
  const double busy = per_solve("jsweep_engine_worker_busy_seconds");
  const double idle = per_solve("jsweep_engine_worker_idle_seconds");
  const double hits = per_solve("jsweep_engine_steals_total", "result", "hit");
  const double misses =
      per_solve("jsweep_engine_steals_total", "result", "miss");
  const double in_passes = per_solve("jsweep_session_sweep_seconds");

  report.set("mesh.build_s", median(log->durations("mesh.build")));
  report.set("partition.build_s", median(log->durations("partition.build")));
  report.set("plan.build_s", median(log->durations("plan.build")));
  report.set("plan.task_data", static_cast<double>(task_data));
  report.set("plan.programs", static_cast<double>(programs));
  report.set("session.create_s", median(log->durations("session.create")));
  report.set("sweep.count", group_sweeps / n_reps);
  report.set("sweep.first_s", rung5_times.empty() ? 0.0 : rung5_times[0]);
  report.set("sweep.p50_s",
             rung5_times.size() > 1
                 ? median({rung5_times.begin() + 1, rung5_times.end()})
                 : 0.0);
  // Power-iteration time outside the sessions' multigroup passes.
  report.set("source_iter.self_s", solve_total / n_reps - in_passes);
  report.set("solve.traced_s", median(solve_s));
  report.set("pool.created", static_cast<double>(pool_created));
  report.set("pool.reuse_ratio",
             pool_acquires > 0 ? static_cast<double>(pool_reuses) /
                                     static_cast<double>(pool_acquires)
                               : 0.0);
  report.set("engine.runs", runs);
  report.set("engine.executions", per_solve("jsweep_engine_executions_total"));
  report.set("engine.busy_s", busy);
  report.set("engine.idle_s", idle);
  report.set("engine.idle_fraction", busy + idle > 0.0 ? idle / (busy + idle)
                                                       : 0.0);
  // The registry carries no route time: per-pass route seconds of the
  // rung-5 session times the engine runs of one solve.
  report.set("engine.route_s", route_per_pass * runs);
  report.set("engine.streams_local",
             per_solve("jsweep_engine_streams_total", "path", "local"));
  report.set("engine.streams_remote",
             per_solve("jsweep_engine_streams_total", "path", "remote"));
  report.set("engine.stream_bytes",
             per_solve("jsweep_engine_stream_bytes_total"));
  report.set("engine.steals", hits);
  report.set("engine.steal_hit_rate",
             hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  report.set("comm.messages", static_cast<double>(traffic.basic_sent) / n_reps);
  report.set("comm.control_messages",
             static_cast<double>(traffic.control_sent) / n_reps);
  report.set("comm.bytes", static_cast<double>(traffic.bytes_sent) / n_reps);

  // Sweep ladder. Rung 2 times dense serial passes over all groups.
  const double grind = grind_rate(*p.disc, quad.angle(0), p.mesh->num_cells() * 6);
  std::vector<sn::SweepOperator> serial_ops;
  for (int g = 0; g < kGroups; ++g) serial_ops.push_back(group_sweep(g));
  std::vector<double> serial_times;
  {
    std::vector<double> q(p.xs->cells(), 0.25);
    for (int i = 0; i < ladder_passes + 1; ++i) {
      WallTimer t;
      for (auto& op : serial_ops) (void)op(q);
      serial_times.push_back(t.seconds());
    }
  }
  const double serial = steady_rate(serial_times, pass_work);
  const double rate5 = steady_rate(rung5_times, pass_work);
  const double rate4 = steady_rate(rung4_times, pass_work);
  report.set("sn.grind_rate", grind);
  report.set("sn.serial_rate", serial);
  report.set("sn.serial_vs_grind", serial / grind);
  report.set("engine.rate_1w", rate4);
  report.set("engine.rate_1w_vs_serial", rate4 / serial);
  report.set("engine.rate", rate5);
  report.set("engine.rate_vs_1w", rate4 > 0.0 ? rate5 / rate4 : 0.0);
  report.set("engine.vs_serial", rate5 / serial);

  report.set("eigen.outers", outers / n_reps);
  report.set("eigen.group_sweeps", group_sweeps / n_reps);
  double built = 0.0;
  for (const SolveRep& r : reps)
    built += static_cast<double>(r.result.stats.task_data_built);
  report.set("eigen.task_data_built", built);
  report.set("eigen.group_sweep_s", group_sweeps > 0.0
                                        ? in_passes * n_reps / group_sweeps
                                        : 0.0);
  report.set("pipeline.passes", per_solve("jsweep_pipeline_passes_total"));
  report.set("pipeline.activations",
             per_solve("jsweep_pipeline_activations_total"));
  report.set("pipeline.fill_s",
             family_total(snap, "jsweep_pipeline_fill_seconds"));
}

}  // namespace jsbench
