// Distributed spectrum run: the quickstart nanowire sweep executed on the
// Fig. 9 rank hierarchy — momentum groups sized by the dynamic allocation,
// energy groups pulling points from the shared work queue, work stealing
// when a k point finishes early.
//
//   $ ./build/distributed_spectrum [ranks]
//
// With 1 rank the same task loop runs on an in-process queue, and the
// printed spectrum is identical for every rank count.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "omen/simulator.hpp"
#include "transport/bands.hpp"

using namespace omenx;

int main(int argc, char** argv) {
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 4;

  // Same device as the quickstart, but swept over 3 transverse momenta so
  // the momentum level of the hierarchy is real.
  omen::SimulationConfig cfg;
  cfg.structure = lattice::make_nanowire(0.6, 8);
  cfg.structure.periodicity = lattice::Periodicity::kZ;
  cfg.num_k = 3;
  cfg.point.obc = transport::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = transport::SolverAlgorithm::kBlockLU;
  cfg.num_ranks = ranks;            // CommWorld size: momentum x energy
  cfg.ranks_per_energy_group = 1;   // widen for spatial decomposition
  cfg.work_stealing = true;
  omen::Simulator sim(cfg);
  std::printf("device: %s, %d communicator ranks\n",
              cfg.structure.name.c_str(), ranks);

  const auto bands = sim.bands(11);
  const auto window = transport::band_window(bands);
  std::vector<double> grid;
  for (double e = window.emin - 0.05; e <= window.emin + 0.7; e += 0.05)
    grid.push_back(e);
  const auto spectrum = sim.transmission_spectrum(grid);

  std::printf("%12s %12s %12s\n", "E (eV)", "T(E)", "channels");
  for (std::size_t i = 0; i < grid.size(); ++i)
    std::printf("%12.3f %12.4f %12lld\n", grid[i], spectrum.transmission[i],
                static_cast<long long>(spectrum.propagating[i]));

  const auto& stats = sim.last_sweep_stats();
  std::printf("\nengine: %lld tasks over %d ranks (%d energy groups), "
              "%lld stolen, wall %.3f s\n",
              static_cast<long long>(stats.tasks_total), stats.ranks,
              stats.energy_groups,
              static_cast<long long>(stats.tasks_stolen),
              stats.wall_seconds);
  for (std::size_t r = 0; r < stats.tasks_per_rank.size(); ++r)
    std::printf("  rank %zu: %lld tasks, %.3f s busy\n", r,
                static_cast<long long>(stats.tasks_per_rank[r]),
                stats.busy_seconds_per_rank[r]);
  return 0;
}
