#pragma once

/// \file ladder.hpp
/// Rungs of the sweep ladder shared by the workloads: the dense kernel
/// grind (rung 1) and timed sweeps of one session (rungs 4-6).

#include <cstdint>
#include <functional>
#include <vector>

#include "comm/cluster.hpp"
#include "sn/discretization.hpp"
#include "sn/face_flux.hpp"
#include "support/timer.hpp"

namespace jsbench {

/// Rung 1: `Discretization::sweep_cell` on the dense path, timed over one
/// ordinate in ascending cell order until ~0.3 s have passed. Returns
/// cell-angles per second. `slots` is the workspace size (face ids).
template <class Disc>
double grind_rate(const Disc& disc, const jsweep::sn::Ordinate& ang,
                  std::int64_t slots) {
  using namespace jsweep;
  const std::int64_t cells = disc.num_cells();
  const std::vector<double> q(static_cast<std::size_t>(cells), 0.25);
  const std::vector<sn::CellFaceSlots> cell_slots =
      sn::build_identity_slots(disc, ang);
  sn::FaceFluxWorkspace ws;
  ws.prepare(slots);
  volatile double sink = 0.0;
  const auto pass = [&] {
    ws.reset();
    double sum = 0.0;
    for (std::int64_t c = 0; c < cells; ++c)
      sum += disc.sweep_cell(
          CellId{c}, ang, q,
          sn::FaceFluxView{&ws, &cell_slots[static_cast<std::size_t>(c)]});
    return sum;
  };
  sink = sink + pass();  // warm-up
  std::int64_t reps = 0;
  WallTimer timer;
  do {
    sink = sink + pass();
    ++reps;
  } while (timer.seconds() < 0.3);
  return static_cast<double>(cells * reps) / timer.seconds();
}

/// Wall time of each of `count` calls of `sweep` on every rank, measured
/// between barriers (identical on all ranks after the max-reduction).
inline std::vector<double> time_calls(jsweep::comm::Context& ctx, int count,
                                      const std::function<void()>& sweep) {
  std::vector<double> out;
  for (int i = 0; i < count; ++i) {
    ctx.barrier();
    jsweep::WallTimer t;
    sweep();
    out.push_back(ctx.allreduce_max(t.seconds()));
  }
  return out;
}

/// Cell-angle-group sweeps per second over all but the first (warm-up)
/// call of `times`, each call sweeping `work` cell-angle-groups.
inline double steady_rate(const std::vector<double>& times, double work) {
  double total = 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) total += times[i];
  return total > 0.0 ? work * static_cast<double>(times.size() - 1) / total
                     : 0.0;
}

}  // namespace jsbench
