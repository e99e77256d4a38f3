// semtree-zipf: the distributed SemTree behind QueryEngine::RunOne,
// under Zipf-skewed k-NN and range queries whose hot set rotates each
// phase, rebalanced after the measured phases. Its time goes to
// cluster handoffs on the modeled link, the batch protocol and
// partition walks; queries are jittered so the result cache never hits.

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "bench_common.h"
#include "geometry.h"
#include "engine/query_engine.h"
#include "semtree/semtree.h"
#include "workload/workload_gen.h"
#include "workload/zipf.h"

namespace perfbench {
namespace {

using semtree::ClusterStats;
using semtree::DistributedSearchStats;
using semtree::KdPoint;
using semtree::QueryEngine;
using semtree::QueryOutcome;
using semtree::QueryType;
using semtree::Result;
using semtree::SearchBudget;
using semtree::SemTree;
using semtree::SemTreeOptions;
using semtree::SpatialQuery;
using semtree::Status;

constexpr size_t kPoints = 40000;
constexpr size_t kDims = 8;
constexpr size_t kClusters = 32;
// Five seats, two holding data after the bulk load: the skewed traffic
// lands on few partitions and the rebalancer has idle seats to use.
constexpr size_t kSeats = 5;
constexpr size_t kDataPartitions = 2;
constexpr auto kLink = std::chrono::microseconds(20);
constexpr size_t kClients = 1;
constexpr int kPhases = 20;
constexpr double kWarmupS = 0.5;
constexpr double kZipfS = 0.99;
constexpr uint64_t kHotSetRotation = 7919;  // Keys per phase.
constexpr double kJitter = 0.02;
constexpr double kRangeShare = 0.3;
constexpr size_t kK = 10;
constexpr double kRadius = 0.2;
constexpr uint64_t kCappedEvery = 5;  // Every fifth query is capped.
constexpr size_t kCap = 256;          // Distance computations.
constexpr uint64_t kSampleEvery = 8;  // Ops kept for the exact check.
constexpr int kSetupRepeats = 7;
constexpr int kRebalanceTicks = 4;
constexpr size_t kSweepQueries = 2048;
constexpr size_t kProbeQueries = 400;

struct Client {
  std::mt19937_64 rng;
  semtree::workload::ZipfianGenerator zipf;
  uint64_t ops = 0;
  uint64_t failed = 0;
  ClientLatencies lat;
  std::vector<Sample> samples;
};

SpatialQuery MakeQuery(std::vector<double> coords, bool range,
                       bool capped) {
  const SearchBudget budget =
      capped ? SearchBudget::MaxDistances(kCap) : SearchBudget::Exact();
  return range ? SpatialQuery::Range(std::move(coords), kRadius, budget)
               : SpatialQuery::Knn(std::move(coords), kK, budget);
}

Result<std::unique_ptr<SemTree>> MakeTree(const std::vector<KdPoint>& corpus,
                                          size_t seats, double* load_s) {
  SemTreeOptions opts;
  opts.dimensions = kDims;
  opts.bucket_size = 32;
  opts.max_partitions = seats;
  opts.bulk_load_partitions = seats > 1 ? kDataPartitions : 0;
  opts.network_latency = kLink;
  // React within the run's few ticks instead of the production defaults.
  opts.rebalance.min_split_points = 64;
  opts.rebalance.split_load_factor = 1.5;
  SEMTREE_ASSIGN_OR_RETURN(std::unique_ptr<SemTree> tree,
                           SemTree::Create(opts));
  const Clock::time_point start = Clock::now();
  SEMTREE_RETURN_NOT_OK(tree->BulkLoadBalanced(corpus));
  *load_s = Seconds(start, Clock::now());
  return tree;
}

uint64_t RebalanceActions(const SemTree& tree) {
  const semtree::RebalanceCounters c = tree.DebugStats().rebalance;
  return c.splits + c.merges + c.migrations;
}

// Hottest partition's share of the handler activations recorded since
// the bulk load (the counters only decay when a rebalance tick reads
// them).
double HotPartitionShare(const SemTree& tree) {
  double max = 0.0, sum = 0.0;
  for (const semtree::PartitionStats& p : tree.AllPartitionStats()) {
    max = std::max(max, p.load_ops);
    sum += p.load_ops;
  }
  return sum > 0.0 ? max / sum : 0.0;
}

double LoadDistances(const SemTree& tree) {
  double sum = 0.0;
  for (const semtree::PartitionStats& p : tree.AllPartitionStats()) {
    sum += p.load_distances;
  }
  return sum;
}

}  // namespace

void RunSemtreeZipf(const Args& args, Report* report) {
  const std::vector<KdPoint> corpus =
      semtree::workload::MakeContiguousClusteredCorpus(kPoints, kDims,
                                                       kClusters, args.seed);
  const FlatPoints flat = Flatten(corpus, kDims);
  const CoordsOf coords_of = [&flat](PointId id) -> const double* {
    return id < flat.ids.size() ? flat.rows.data() + id * kDims : nullptr;
  };

  // The tree, its engine and the client run on one CPU: spread over the
  // host's CPUs, each cross-CPU handoff wake-up adds a delay that swings
  // throughput between 2k and 6k ops/s from run to run (README.md).
  std::optional<CpuPin> pin(std::in_place, kWorkloadCpus);

  // Set-up: build the partitioned tree and its engine several times and
  // keep the last; setup_s is the median.
  std::vector<double> setup_s, bulk_load_s;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<SemTree> tree;
  for (int r = 0; r < kSetupRepeats; ++r) {
    engine.reset();
    tree.reset();
    const Clock::time_point start = Clock::now();
    double load_s = 0.0;
    auto made = MakeTree(corpus, kSeats, &load_s);
    if (!made.ok()) {
      report->Fail("semtree set-up: " + made.status().ToString());
      return;
    }
    tree = std::move(*made);
    engine = std::make_unique<QueryEngine>(tree.get(), EngineOptions());
    setup_s.push_back(Seconds(start, Clock::now()));
    bulk_load_s.push_back(load_s);
  }

  Tracer tracer(args.trace, kClients + 1);
  std::vector<Client> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(Client{std::mt19937_64(Mix(args.seed, c)),
                             semtree::workload::ZipfianGenerator(
                                 kPoints, kZipfS, Mix(args.seed, c + 100)),
                             0, 0, ClientLatencies(kPhases), {}});
  }

  auto op = [&](size_t c, int phase) {
    Client& cl = clients[c];
    const uint64_t n = cl.ops++;
    const uint64_t rank = cl.zipf.Next();
    const uint64_t rotation = phase < 0 ? 0 : uint64_t(phase) * kHotSetRotation;
    const KdPoint& target = corpus[(rank + rotation) % kPoints];
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const bool range = unit(cl.rng) < kRangeShare;
    SpatialQuery q = MakeQuery(Jittered(target.coords, kJitter, &cl.rng), range,
                               n % kCappedEvery == kCappedEvery - 1);
    const uint64_t op_id = tracer.NewId(c);
    const uint64_t call_id = tracer.NewId(c);
    const Clock::time_point start = Clock::now();
    Result<QueryOutcome> out = engine->RunOne(q);
    const Clock::time_point end = Clock::now();
    tracer.Record(c, call_id, "engine.run_one", start, end, op_id, op_id);
    if (!out.ok()) {
      ++cl.failed;
      return;
    }
    if (phase >= 0) {
      cl.lat.phases[phase][range ? kRange : kKnn].Add(
          Micros(start, end));
    }
    report->Expect(CheckAnswerShape(out->neighbors, q.coords.data(), kDims,
                                     coords_of, range ? SIZE_MAX : kK,
                                     range ? kRadius : -1.0));
    // Kept for the brute-force check: every eighth op, and every capped
    // k-NN op (knn_recall averages over them).
    if (n % kSampleEvery == 0 || (!range && !q.budget.exact())) {
      cl.samples.push_back({std::move(q), std::move(out->neighbors)});
    }
    tracer.Record(c, op_id, range ? "op.range" : "op.knn", start,
                  Clock::now(), 0, op_id);
  };

  // Sweep: between phases, one whole batch of fresh queries through
  // QueryEngine::Run (the coalesced batch protocol); spread over the run
  // like the phases, its median sees the same host as the window does.
  std::vector<double> sweep_s;
  std::vector<Sample> swept;
  std::mt19937_64 sweep_rng(Mix(args.seed, 777));
  auto sweep = [&](bool timed, size_t keep_every) {
    std::vector<SpatialQuery> batch;
    for (size_t i = 0; i < kSweepQueries; ++i) {
      batch.push_back(MakeQuery(
          Jittered(corpus[sweep_rng() % kPoints].coords, kJitter, &sweep_rng),
          i % 3 == 2, false));
    }
    Result<semtree::BatchResult> res = semtree::BatchResult{};
    const double s = TimeUs([&] { res = engine->Run(batch); }) / 1e6;
    if (!res.ok()) {
      report->Fail("QueryEngine::Run: " + res.status().ToString());
      return;
    }
    if (timed) sweep_s.push_back(s);
    for (size_t i = sweep_s.size() % keep_every; i < batch.size();
         i += keep_every) {
      swept.push_back({batch[i], res->outcomes[i].neighbors});
    }
  };

  // The network counters cover the measured phases only.
  ClusterStats window_net, phase_start_net = tree->NetworkStats();
  const semtree::ShardedResultCache::Stats cache_before =
      engine->cache_stats();
  auto between = [&](int finished) {
    if (finished >= 0) {
      AddNetworkDelta(phase_start_net, tree->NetworkStats(), &window_net);
      sweep(true, 64);
    }
    phase_start_net = tree->NetworkStats();
  };
  const std::vector<double> walls = RunPhases(
      kClients, kPhases, args.seconds / kPhases, kWarmupS, op, between);
  AddNetworkDelta(phase_start_net, tree->NetworkStats(), &window_net);
  const semtree::ShardedResultCache::Stats cache_after = engine->cache_stats();
  const double hot_share = HotPartitionShare(*tree);

  // Rebalancing, on the load the window left, with no op in flight. Run
  // between phases instead, its splits made the later phases up to a
  // quarter slower at seed-dependent moments, which left throughput too
  // unsteady to compare.
  std::vector<double> tick_ms;
  const uint64_t actions_before = RebalanceActions(*tree);
  for (int t = 0; t < kRebalanceTicks; ++t) {
    Status st;
    tick_ms.push_back(TimeUs([&] { st = tree->RebalanceTick(); }) / 1000.0);
    if (!st.ok()) report->Fail("RebalanceTick: " + st.ToString());
  }
  const uint64_t actions = RebalanceActions(*tree) - actions_before;
  sweep(false, 8);  // Answers of the rebalanced tree, checked below.
  pin.reset();  // The checks below run on every CPU.

  // After rebalancing the tree must still be whole and well formed.
  const Status inv = tree->CheckInvariants();
  if (!inv.ok()) report->Fail("CheckInvariants: " + inv.ToString());
  report->Expect(CheckCount("SemTree size", tree->size(), kPoints));

  std::vector<const Sample*> samples;
  uint64_t attempted = 0, failed = 0;
  for (const Client& cl : clients) {
    for (const Sample& s : cl.samples) samples.push_back(&s);
    attempted += cl.ops;
    failed += cl.failed;
  }
  for (const Sample& s : swept) samples.push_back(&s);
  double recall_sum = 0.0;
  size_t recall_n = 0;
  CheckSamples(flat, samples, report, &recall_sum, &recall_n);

  std::vector<ClientLatencies> lats;
  for (const Client& cl : clients) lats.push_back(cl.lat);
  const LoopSummary loop = Summarize(lats, walls);
  report->set_ops(attempted, failed);
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("throughput_ops_s", loop.throughput_ops_s, "ops/s");
  report->Add("knn_p50_us", loop.p50_us[kKnn], "us");
  report->Add("knn_p90_us", loop.p90_us[kKnn], "us");
  report->Add("knn_p99_us", loop.p99_us[kKnn], "us");
  report->Add("range_p50_us", loop.p50_us[kRange], "us");
  report->Add("range_p90_us", loop.p90_us[kRange], "us");
  report->Add("range_p99_us", loop.p99_us[kRange], "us");
  report->Add("sweep_s", Median(sweep_s), "s");
  report->Add("knn_recall", recall_n ? recall_sum / recall_n : 0.0, "ratio");

  if (!args.trace) {
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run: per-layer figures. The window's spans give the engine
  // call under load; a quiescent probe on fresh queries isolates the
  // layers below it.
  const double window_ops = double(loop.ops);
  report->Add("trace.throughput_ops_s", loop.throughput_ops_s, "ops/s");
  report->Add("engine.run_one_us", tracer.MedianUs("engine.run_one"), "us");
  const uint64_t lookups = (cache_after.hits - cache_before.hits) +
                           (cache_after.misses - cache_before.misses);
  report->Add("engine.cache_hit_ratio",
              lookups ? double(cache_after.hits - cache_before.hits) / lookups
                      : 0.0,
              "ratio");
  report->Add("engine.cache_evictions",
              double(cache_after.evictions - cache_before.evictions),
              "count");
  report->Add("cluster.messages_per_query", window_net.messages / window_ops,
              "count");
  report->Add("cluster.remote_messages_per_query",
              window_net.remote_messages / window_ops, "count");
  report->Add("cluster.forwards_per_query", window_net.forwards / window_ops,
              "count");
  report->Add("cluster.bytes_per_query", window_net.bytes / window_ops,
              "bytes");
  report->Add("cluster.wire_model_us",
              window_net.messages / window_ops * double(kLink.count()), "us");
  report->Add("semtree.hot_partition_share", hot_share, "ratio");
  report->Add("semtree.rebalance_tick_ms", Median(tick_ms), "ms");
  report->Add("semtree.rebalance_actions",
              double(actions), "count");
  report->Add("semtree.bulk_load_s", Median(bulk_load_s), "s");

  pin.emplace(kWorkloadCpus);
  double twin_load_s = 0.0;
  auto twin = MakeTree(corpus, 1, &twin_load_s);
  if (!twin.ok()) {
    report->Fail("one-partition twin: " + twin.status().ToString());
    return;
  }
  std::mt19937_64 probe_rng(Mix(args.seed, 999));
  std::vector<SpatialQuery> probe;
  for (size_t i = 0; i < kProbeQueries; ++i) {
    probe.push_back(MakeQuery(
        Jittered(corpus[probe_rng() % kPoints].coords, kJitter, &probe_rng),
        i % 3 == 2, false));
  }
  const size_t lane = kClients;
  for (const SpatialQuery& q : probe) {
    tracer.Time(lane, "probe.engine.run_one",
                [&] { (void)engine->RunOne(q); });
  }
  for (const SpatialQuery& q : probe) {
    tracer.Time(lane, "semtree.batch_search",
                [&] { (void)tree->BatchSearch({q}); });
  }
  for (const SpatialQuery& q : probe) {
    tracer.Time(lane, "probe.twin.batch_search",
                [&] { (void)(*twin)->BatchSearch({q}); });
  }
  const double distances_before = LoadDistances(*tree);
  double partitions = 0.0;
  for (const SpatialQuery& q : probe) {
    DistributedSearchStats ds;
    if (q.type == QueryType::kKnn) {
      tracer.Time(lane, "semtree.knn",
                  [&] { (void)tree->KnnSearch(q.coords, q.k, &ds); });
    } else {
      tracer.Time(lane, "semtree.range",
                  [&] { (void)tree->RangeSearch(q.coords, q.radius, &ds); });
    }
    partitions += double(ds.partitions_visited);
  }
  const double examined = LoadDistances(*tree) - distances_before;
  report->Add("engine.overhead_us",
              tracer.MedianUs("probe.engine.run_one") -
                  tracer.MedianUs("semtree.batch_search"),
              "us");
  report->Add("semtree.batch_search_us",
              tracer.MedianUs("semtree.batch_search"), "us");
  report->Add("cluster.distribution_us",
              tracer.MedianUs("semtree.batch_search") -
                  tracer.MedianUs("probe.twin.batch_search"),
              "us");
  report->Add("semtree.knn_us", tracer.MedianUs("semtree.knn"), "us");
  report->Add("semtree.partitions_per_query", partitions / probe.size(),
              "count");
  report->Add("core.points_examined_per_query", examined / probe.size(),
              "count");

  report->Add("core.kernel_ns_per_distance",
              KernelNsPerDistance(flat, probe), "ns");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  WriteSpans(tracer, args, report);
}

}  // namespace perfbench
