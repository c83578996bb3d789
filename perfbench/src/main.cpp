// perfbench: one phase of the repository benchmark per process.
//
//   perfbench <pipeline|serve|ingest> --workload hot|cold --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//   perfbench --version
//
// perfbench/run.py runs the three phases as separate processes (each starts
// cold, with its own thread-pool size) and merges their last-line JSON
// results into the benchmark's result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

#ifndef IRGNN_PERFBENCH_COMPILER
#define IRGNN_PERFBENCH_COMPILER "unknown"
#endif
#ifndef IRGNN_PERFBENCH_BUILD_TYPE
#define IRGNN_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench <pipeline|serve|ingest> --workload hot|cold "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "       perfbench --version\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("{\"compiler\":\"%s\",\"build_type\":\"%s\"}\n",
                IRGNN_PERFBENCH_COMPILER, IRGNN_PERFBENCH_BUILD_TYPE);
    return 0;
  }
  if (argc < 2) return usage();
  const std::string phase = argv[1];
  perfbench::PhaseArgs args;
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0))
        return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || args.work_dir.empty() ||
      (args.workload != "hot" && args.workload != "cold"))
    return usage();

  perfbench::Tracer::get().enable(args.trace);
  perfbench::Result result;
  int rc = 0;
  if (phase == "pipeline") {
    rc = perfbench::run_pipeline(args, result);
  } else if (phase == "serve") {
    rc = perfbench::run_serve(args, result);
  } else if (phase == "ingest") {
    rc = perfbench::run_ingest(args, result);
  } else {
    return usage();
  }
  result.print(phase);
  if (rc != 0) return rc;
  return result.correct() ? 0 : 1;
}
