// Figure 3 — "The effect of using balance factor and window size".
//
// Sweeps BF in {1, 0.75, 0.5, 0.25, 0} x W in {1..5} (EASY backfill) and
// prints three tables matching the three subfigures:
//   (a) average waiting time (minutes)      — BF on the x-axis
//   (b) number of unfair jobs               — BF on the x-axis
//   (c) loss of capacity (%)                — W on the x-axis (paper puts
//       W there because LoC responds to W more than to BF)
//
// Paper shape to reproduce: (a) wait falls sharply from BF=1 to 0.5 then
// flattens; W>1 helps FCFS by >10%. (b) unfair count rises toward SJF and
// with larger W. (c) for BF >= 0.5, LoC falls as W grows.
#include <cstdio>

#include "common.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

#include <iostream>

namespace amjs::bench {
namespace {

int run(int argc, const char** argv) {
  Flags flags;
  flags.define("horizon-days", "7", "trace length in days");
  flags.define("seed", "2012", "workload seed");
  flags.define("fairness-stride", "1",
               "evaluate every k-th job's fair start (1 = every job)");
  if (const auto parsed = flags.parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.error().to_string().c_str(),
                 flags.usage("fig3_balance_sweep").c_str());
    return 1;
  }
  if (flags.get_i64("fairness-stride") < 1) {
    std::fprintf(stderr, "--fairness-stride must be at least 1\n%s",
                 flags.usage("fig3_balance_sweep").c_str());
    return 1;
  }

  const auto trace = intrepid_trace(days(flags.get_i64("horizon-days")),
                                    static_cast<std::uint64_t>(flags.get_i64("seed")));
  const auto stride = static_cast<std::size_t>(flags.get_i64("fairness-stride"));

  const std::vector<double> bfs = {1.0, 0.75, 0.5, 0.25, 0.0};
  const std::vector<int> windows = {1, 2, 3, 4, 5};

  std::printf("=== Fig. 3: balance factor x window size sweep ===\n");
  std::printf("trace: %zu jobs, offered load %.2f; unfair tolerance %.0f min; "
              "fairness stride %zu\n\n",
              trace.size(), trace.stats().offered_load(kIntrepidNodes),
              to_minutes(kUnfairTolerance), stride);

  struct Cell {
    double wait = 0.0;
    std::size_t unfair = 0;
    double loc = 0.0;
  };
  std::vector<std::vector<Cell>> grid(windows.size(),
                                      std::vector<Cell>(bfs.size()));

  // The cells are independent runs, spread over the CPUs; each writes only
  // its own slot. Inside a parallel_for body each cell's fair-start oracle
  // runs serially (util/parallel.hpp), so the grid is the only fan-out.
  parallel_for(windows.size() * bfs.size(), [&](std::size_t i) {
    const std::size_t wi = i / bfs.size();
    const std::size_t bi = i % bfs.size();
    const auto spec = BalancerSpec::fixed(bfs[bi], windows[wi]);
    const auto report = full_report(spec, trace, stride);
    grid[wi][bi] = Cell{report.avg_wait_min, report.unfair_jobs.value_or(0),
                        report.loss_of_capacity * 100.0};
  });

  auto bf_headers = [&] {
    std::vector<std::string> h = {"W \\ BF"};
    for (const double bf : bfs) h.push_back(TextTable::num(bf, 2));
    return h;
  };

  std::printf("(a) average waiting time (minutes):\n");
  {
    TextTable t(bf_headers());
    for (std::size_t wi = 0; wi < windows.size(); ++wi) {
      std::vector<std::string> row = {"W=" + std::to_string(windows[wi])};
      for (std::size_t bi = 0; bi < bfs.size(); ++bi) {
        row.push_back(TextTable::num(grid[wi][bi].wait, 1));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }

  std::printf("\n(b) number of unfair jobs%s:\n",
              stride > 1 ? " (sampled; multiply by stride for scale)" : "");
  {
    TextTable t(bf_headers());
    for (std::size_t wi = 0; wi < windows.size(); ++wi) {
      std::vector<std::string> row = {"W=" + std::to_string(windows[wi])};
      for (std::size_t bi = 0; bi < bfs.size(); ++bi) {
        row.push_back(TextTable::num(static_cast<std::int64_t>(grid[wi][bi].unfair)));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }

  std::printf("\n(c) loss of capacity (%%), W on rows as in the paper:\n");
  {
    TextTable t(bf_headers());
    for (std::size_t wi = 0; wi < windows.size(); ++wi) {
      std::vector<std::string> row = {"W=" + std::to_string(windows[wi])};
      for (std::size_t bi = 0; bi < bfs.size(); ++bi) {
        row.push_back(TextTable::num(grid[wi][bi].loc, 2));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }

  // Shape checks against the paper's claims.
  const double wait_fcfs = grid[0][0].wait;
  const double wait_half = grid[0][2].wait;
  const double wait_zero = grid[0][4].wait;
  const bool wait_drops = wait_half < wait_fcfs;
  const bool wait_flattens = wait_zero > 0.6 * wait_half;  // no cliff after 0.5
  const bool w_helps_fcfs = grid[3][0].wait < 0.95 * grid[0][0].wait;
  const bool unfair_rises =
      grid[0][4].unfair > grid[0][0].unfair || grid[4][4].unfair > grid[4][0].unfair;
  const bool loc_falls_with_w = grid[4][0].loc < grid[0][0].loc ||
                                grid[4][2].loc < grid[0][2].loc;

  std::printf("\npaper shape checks:\n");
  std::printf("  wait drops BF 1 -> 0.5:                 %s (%.1f -> %.1f)\n",
              wait_drops ? "HOLDS" : "DIFFERS", wait_fcfs, wait_half);
  std::printf("  wait flattens below BF=0.5:             %s (%.1f @ BF=0)\n",
              wait_flattens ? "HOLDS" : "DIFFERS", wait_zero);
  std::printf("  W=4 helps FCFS wait:                    %s (%.1f vs %.1f)\n",
              w_helps_fcfs ? "HOLDS" : "DIFFERS", grid[3][0].wait, grid[0][0].wait);
  std::printf("  unfair jobs rise toward SJF:            %s\n",
              unfair_rises ? "HOLDS" : "DIFFERS");
  std::printf("  LoC falls with W (BF >= 0.5):           %s\n",
              loc_falls_with_w ? "HOLDS" : "DIFFERS");
  return 0;
}

}  // namespace
}  // namespace amjs::bench

int main(int argc, const char** argv) { return amjs::bench::run(argc, argv); }
