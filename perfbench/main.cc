// SemTree benchmark executable. Runs one workload and prints one JSON
// object as its last stdout line: correct, attempted, failed and every
// metric the run measured. Usually started through perfbench/run.py,
// which builds it and keeps the metrics BENCHMARK.json names:
//
//   perfbench --workload semtree-zipf|kdtree-rw|requirements
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// The seed only shapes the generated inputs; the program under test
// never receives it. Exit status is 0 when every answer checked out,
// 1 on a wrong answer, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_common.h"

namespace perfbench {
namespace {

// Per-layer metrics of a traced run. A workload that never calls a
// layer reports it as 0: it spent no time there and did no work there.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"trace.throughput_ops_s", "ops/s"},
    {"engine.run_one_us", "us"},
    {"engine.overhead_us", "us"},
    {"engine.cache_hit_ratio", "ratio"},
    {"engine.cache_evictions", "count"},
    {"engine.write_us", "us"},
    {"engine.write_wait_us", "us"},
    {"kdtree.knn_us", "us"},
    {"kdtree.range_us", "us"},
    {"kdtree.write_us", "us"},
    {"core.points_examined_per_query", "count"},
    {"core.nodes_visited_per_query", "count"},
    {"core.kernel_ns_per_distance", "ns"},
    {"semtree.batch_search_us", "us"},
    {"cluster.distribution_us", "us"},
    {"semtree.partitions_per_query", "count"},
    {"cluster.messages_per_query", "count"},
    {"cluster.remote_messages_per_query", "count"},
    {"cluster.forwards_per_query", "count"},
    {"cluster.bytes_per_query", "bytes"},
    {"cluster.wire_model_us", "us"},
    {"semtree.hot_partition_share", "ratio"},
    {"semtree.rebalance_tick_ms", "ms"},
    {"semtree.rebalance_actions", "count"},
    {"semtree.bulk_load_s", "s"},
    {"semtree.knn_us", "us"},
    {"nlp.extract_s", "s"},
    {"fastmap.train_s", "s"},
    {"semtree.insert_build_s", "s"},
    {"fastmap.embed_us", "us"},
    {"distance.triple_us", "us"},
    {"reqverify.sweep_queries", "count"},
    {"reqverify.exact_scan_ms", "ms"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "semtree-zipf|kdtree-rw|requirements --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) Usage("bad --seconds");
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("bad --trace");
      }
      args.trace = value[0] == '1';
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      args.out_dir = value;
    } else {
      Usage("unknown flag");
    }
  }
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  Report report;
  if (args.workload == "semtree-zipf") {
    RunSemtreeZipf(args, &report);
  } else if (args.workload == "kdtree-rw") {
    RunKdtreeRw(args, &report);
  } else if (args.workload == "requirements") {
    RunRequirements(args, &report);
  } else {
    Usage("unknown workload");
  }
  if (args.trace) {
    for (const LayerMetric& m : kLayerMetrics) {
      if (!report.Has(m.name)) report.Add(m.name, 0.0, m.unit);
    }
  }
  const std::string json = report.ToJson(args);
  std::ofstream(OutputPath(args, args.trace ? "-layers.json" : ".json"))
      << json << "\n";
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}
