// Table I reproduction: the platform inventory.  The paper lists the Xeon
// E5-2690 + Tesla K20c testbed; we print the host CPU configuration and the
// simulated-device parameters that stand in for the GPU (DESIGN.md §2).
#include <cstdio>
#include <thread>

#include "common/cli.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "device/device.h"

int main(int argc, char** argv) {
  using namespace fastsc;
  CliParser cli("bench_platform: print the Table I style platform inventory");
  if (!cli.parse(argc, argv)) {
    cli.print_help();
    return 0;
  }
  cli.check_unknown();

  device::DeviceContext ctx;

  TextTable paper("Paper Table I: CPU and GPU specifics (original testbed)");
  paper.header({"Component", "Value"});
  paper.row({"CPU Model", "Intel Xeon E5-2690"});
  paper.row({"CPU Cores", "8"});
  paper.row({"DRAM Size", "128GB"});
  paper.row({"GPU Model", "Tesla K20c"});
  paper.row({"Device Memory Size", "5GB GDDR5"});
  paper.row({"SMs and SPs", "13 and 192"});
  paper.row({"Compute Capability", "3.5"});
  paper.row({"CUDA SDK", "7.5"});
  paper.row({"PCIe Bus", "PCIe x16 Gen2 (8 GB/s peak)"});
  paper.print();
  std::printf("\n");

  TextTable ours("This reproduction: host + simulated device");
  ours.header({"Component", "Value"});
  ours.row({"Host hardware threads",
            std::to_string(std::thread::hardware_concurrency())});
  // The cores the measurements ran on: the default pool is sized from this
  // process's CPU affinity mask, which a taskset or cpuset can narrow.
  ours.row({"Host pool workers (affinity mask)",
            std::to_string(default_thread_pool().worker_count())});
  ours.row({"Simulated device", ctx.description()});
  ours.row({"Device workers", std::to_string(ctx.pool().worker_count())});
  ours.row({"Modeled PCIe bandwidth",
            TextTable::fmt(ctx.transfer_model().bandwidth_bytes_per_sec / 1e9,
                           3) +
                " GB/s x " + TextTable::fmt(ctx.transfer_model().efficiency, 3)});
  ours.row({"Modeled transfer latency",
            TextTable::fmt(ctx.transfer_model().latency_seconds * 1e6, 3) +
                " us"});
  ours.print();
  return 0;
}
