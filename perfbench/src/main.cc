// Skeena end-to-end benchmark. One invocation runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off; with --trace 1 it prints the per-layer metrics of a traced phase.
// The last line of stdout is the JSON result. README.md describes the
// workloads, the inputs and the layer map.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload wire-cross-rw|tpcc-new-order-opt|"
               "wal-disk-recover|repl-follow --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string val = argv[i + 1];
    if (flag == "--workload") {
      args.workload = val;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(val.c_str());
    } else if (flag == "--trace") {
      args.trace = val == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = val;
    } else {
      return Usage();
    }
  }
  if (args.seconds < 1 || args.work_dir.empty()) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.work_dir.c_str());
    return 1;
  }

  perfbench::Report rep;
  if (args.workload == "wire-cross-rw") {
    perfbench::RunWire(args, &rep);
  } else if (args.workload == "tpcc-new-order-opt") {
    perfbench::RunTpcc(args, &rep);
  } else if (args.workload == "wal-disk-recover") {
    perfbench::RunWal(args, &rep);
  } else if (args.workload == "repl-follow") {
    perfbench::RunRepl(args, &rep);
  } else {
    return Usage();
  }
  std::fflush(stderr);
  std::printf("%s\n", rep.Json().c_str());
  std::fflush(stdout);
  return 0;
}
