// Coverage-guided fuzzing (MAP-Elites over behavior descriptors) vs classic
// score-only search, on the same evaluation budget.
//
//   ./fuzz_coverage [output-dir] [generations] [population]
//
// Both searches fuzz reno in traffic mode with the behavior probe armed, so
// their archives are directly comparable: every evaluated member is offered
// to a 4-dimensional behavior grid (CCA state transitions × RTT spread ×
// RTO backoff × cwnd span) that keeps the best-scoring trace per cell.
// Score-only search breeds from rank selection and tends to converge onto
// one behavioral niche; MAP-Elites breeds from the archive and keeps every
// discovered behavior alive, so it fills more cells on the same budget.
//
// Each search is a one-cell campaign. The MAP-Elites archive is then saved
// and a third campaign resumes from it with a fresh population
// (CellConfig::resume_archive; CampaignConfig::resume_dir automates the
// path) to show cell occupancy continuing from where it left off.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "campaign/campaign.h"
#include "fuzz/score.h"

using namespace ccfuzz;

namespace {

campaign::CellConfig base_cell(int population, int generations) {
  campaign::CellConfig cell;
  cell.cca = "reno";
  cell.scenario.duration = TimeNs::seconds(2);
  cell.scenario.coverage = true;  // arm the behavior probe
  cell.score = std::make_shared<fuzz::LowUtilizationScore>();
  cell.trace_weights = {.per_packet = 1e-4, .per_drop = 1e-3};
  cell.traffic_model.max_packets = 1500;
  cell.ga.population = population;
  cell.ga.islands = 4;
  cell.ga.max_generations = generations;
  cell.ga.seed = 7;
  return cell;
}

/// Runs `cell` as a one-cell campaign and prints its coverage history.
campaign::CellResult run_cell(const char* label,
                              const campaign::CellConfig& cell) {
  campaign::CampaignConfig cfg;
  cfg.add_cell(cell);
  campaign::CellResult r = campaign::Campaign(cfg).run().cells.front();
  for (const auto& gs : r.history) {
    std::printf("[%-10s] gen %2d  best=%8.3f  cells=%4lld (+%lld)  bits=%lld\n",
                label, gs.generation, gs.best_score,
                static_cast<long long>(gs.archive_cells),
                static_cast<long long>(gs.archive_new_cells),
                static_cast<long long>(gs.coverage_bits));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : "coverage_out";
  const int generations = argc > 2 ? std::atoi(argv[2]) : 10;
  const int population = argc > 3 ? std::atoi(argv[3]) : 64;
  if (generations < 1 || population < 2) {
    std::fprintf(stderr,
                 "usage: fuzz_coverage [output-dir] [generations>=1] "
                 "[population>=2]\n");
    return 1;
  }

  // A/B on the same budget, same seed, same initial population: only the
  // parent-selection strategy differs.
  campaign::CellConfig score_cell = base_cell(population, generations);
  campaign::CellConfig elites_cell = score_cell;
  elites_cell.ga.search = fuzz::SearchMode::kMapElites;
  // Rank members that light up fresh union-coverage bits above equal
  // scorers: the other half of coverage-guided selection.
  elites_cell.ga.novelty_bonus = 0.01;

  std::printf("score-only search (%d gens x %d pop):\n", generations,
              population);
  const campaign::CellResult score_only = run_cell("score", score_cell);

  std::printf("\nmap-elites search (same budget):\n");
  const campaign::CellResult map_elites = run_cell("map-elites", elites_cell);

  const std::size_t score_cells = score_only.archive->filled();
  const std::size_t elite_cells = map_elites.archive->filled();
  std::printf("\n%-12s %8s %8s %10s\n", "search", "cells", "bits", "best");
  std::printf("%-12s %8zu %8u %10.3f\n", "score", score_cells,
              score_only.archive->union_bits(), score_only.best_score());
  std::printf("%-12s %8zu %8u %10.3f\n", "map-elites", elite_cells,
              map_elites.archive->union_bits(), map_elites.best_score());
  std::printf("map-elites filled %+lld cells vs score-only\n",
              static_cast<long long>(elite_cells) -
                  static_cast<long long>(score_cells));

  // Persist, reload, resume: a fresh population keeps filling the archived
  // behavior space instead of rediscovering it.
  std::filesystem::create_directories(out_dir);
  const std::string archive_path = out_dir + "/archive.txt";
  map_elites.archive->save_file(archive_path);
  std::printf("\narchive saved to %s (%zu cells)\n", archive_path.c_str(),
              elite_cells);

  campaign::CellConfig resumed_cell = elites_cell;
  resumed_cell.ga.seed = 1234;  // a brand-new population
  resumed_cell.ga.max_generations = std::max(2, generations / 2);
  resumed_cell.resume_archive = archive_path;
  std::printf("resumed with a fresh population (seed %llu):\n",
              static_cast<unsigned long long>(resumed_cell.ga.seed));
  const campaign::CellResult resumed = run_cell("resumed", resumed_cell);
  std::printf("resume: %zu -> %zu cells\n", elite_cells,
              resumed.archive->filled());
  resumed.archive->save_file(archive_path);

  return elite_cells > score_cells ? 0 : 2;
}
