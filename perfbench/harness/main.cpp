// perfbench_harness: runs one benchmark workload and writes its raw
// samples as JSON. Normally started by perfbench/run.py, which builds it,
// turns the samples into metrics and decides whether the run was correct.
//
//   perfbench_harness --workload field-codec --seed 7 --seconds 10
//                     --trace 0 --out raw.json --workdir DIR
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload field-codec|service-mixed|"
               "archive-store --seed N --seconds S --trace 0|1 --out FILE "
               "--workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--out") opt.out = value;
    else if (key == "--workdir") opt.workdir = value;
    else return usage();
  }
  if (argc % 2 == 0 || opt.out.empty() || opt.workdir.empty() ||
      !(opt.seconds > 0.0)) {
    return usage();
  }

  perfbench::Report report;
  report.options = opt;
  try {
    int rc = 2;
    if (opt.workload == "field-codec") {
      rc = perfbench::runFieldCodec(opt, report);
    } else if (opt.workload == "service-mixed") {
      rc = perfbench::runServiceMixed(opt, report);
    } else if (opt.workload == "archive-store") {
      rc = perfbench::runArchiveStore(opt, report);
    } else {
      return usage();
    }
    if (rc != 0) return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  if (!report.write()) {
    std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                 opt.out.c_str());
    return 1;
  }
  return 0;
}
