// The repository benchmark driver.
//
//   perfbench --workload dti|powerlaw|service --seed N --seconds S
//             --trace 0|1 [--phase run|setup] [--scale X] [--trace-out PATH]
//
// Inputs come from --seed and are generated before anything is timed; the
// program only ever sees the generated points or graphs.  Every op's output
// is checked (checks.h) and failures are counted, not fatal.
//
// --phase setup times one set-up (DeviceContext / Service construction up to
// the return of the first op) and prints {"setup_s": ...}; run.py runs it in
// fresh processes so each sample pays the first-solve penalty.  --phase run
// sets up once (another setup sample), then measures for --seconds and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced replay (--trace 1) as the last line.
#include <cstdio>
#include <exception>

#include "report.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    if (args.workload == "dti") return perfbench::run_dti(args);
    if (args.workload == "powerlaw") return perfbench::run_powerlaw(args);
    return perfbench::run_service(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }
}
