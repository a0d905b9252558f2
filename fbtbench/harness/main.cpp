// fbtbench_harness: runs one benchmark workload against the fbtgen libraries.
//
//   fbtbench_harness --spec SPEC.json --deadline S --trace 0|1 --out RAW.json
//
// SPEC.json holds the generated inputs (run.py makes them from the workload
// seed and run length). The harness runs all of them, but starts no new
// operation once its timed loop has passed S seconds. RAW.json receives
// per-operation latencies, fingerprints, check failures, counters and, with
// --trace 1, the recorded spans. run.py turns the raw result into metrics.
// Exit status 2 means the harness itself failed.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace fbtbench;
  const fbt::Cli cli(argc, argv);
  try {
    std::ifstream in(cli.get("spec", ""));
    fbt::require(static_cast<bool>(in), "harness", "cannot read --spec");
    std::stringstream text;
    text << in.rdbuf();
    Json spec;
    std::string error;
    fbt::require(fbt::obs::json_parse(text.str(), spec, error), "spec", error);

    Tracer tracer;
    if (cli.get_int("trace", 0) != 0) tracer.enable();
    const double deadline_s = cli.get_double("deadline", 60.0);

    const std::map<std::string, decltype(&run_serve_sweep)> workloads = {
        {"serve_sweep", &run_serve_sweep},
        {"embedded_block", &run_embedded_block}};
    RawResult raw;
    raw.workload = str(spec, "workload");
    const auto it = workloads.find(raw.workload);
    fbt::require(it != workloads.end(), "harness",
                 "unknown workload " + raw.workload);
    it->second(spec, deadline_s, tracer, raw);
    raw.spans = tracer.spans();
    write_raw(cli.get("out", "raw.json"), raw);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fbtbench_harness: %s\n", e.what());
    return 2;
  }
  return 0;
}
