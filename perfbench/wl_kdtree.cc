// kdtree-rw: the sequential KD-tree behind QueryEngine, four clients
// each mixing Zipf-popular query-by-example reads (issued at exact
// corpus coordinates, so they repeat and the result cache can hit) with
// about 10% writes. Every client inserts its own stream of fresh ids and
// removes only ids it inserted itself, so no write can fail on another
// client's ordering. Its time goes to the engine lock, the epoch-keyed
// cache and the leaf-scan kernels; it makes no cluster hop.

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <optional>

#include "core/backends.h"
#include "engine/query_engine.h"
#include "geometry.h"
#include "workload/workload_gen.h"
#include "workload/zipf.h"

namespace perfbench {
namespace {

using semtree::KdPoint;
using semtree::QueryEngine;
using semtree::QueryOutcome;
using semtree::QueryType;
using semtree::Result;
using semtree::SearchStats;
using semtree::SpatialIndex;
using semtree::SpatialQuery;
using semtree::Status;

constexpr size_t kPoints = 30000;
constexpr size_t kDims = 8;
constexpr size_t kClusters = 256;
constexpr size_t kClients = 4;
constexpr int kPhases = 10;
constexpr double kWarmupS = 0.5;
constexpr double kZipfS = 0.8;
// The hot set moves by this many keys each phase, so a run averages over
// ten hot sets instead of depending on the cost of one seed's hottest
// keys.
constexpr uint64_t kHotSetRotation = 7919;
constexpr double kWriteShare = 0.10;
constexpr double kRangeShare = 0.3;  // Of reads.
constexpr size_t kK = 10;
constexpr double kRadius = 0.2;
constexpr double kJitter = 0.02;
constexpr int kSetupRepeats = 5;
constexpr size_t kFinalChecks = 1024;
constexpr size_t kSweepQueries = 8192;
constexpr size_t kProbeQueries = 400;
// Inserted ids: kPoints + (client << kClientShift) + sequence number.
constexpr int kClientShift = 32;

struct Client {
  std::mt19937_64 rng;
  semtree::workload::ZipfianGenerator zipf;
  std::deque<PointId> live;  // Own inserts not yet removed, oldest first.
  uint64_t ops = 0;
  uint64_t failed = 0;
  ClientLatencies lat;
};

PointId InsertedId(size_t client, uint64_t seq) {
  return kPoints + (uint64_t(client) << kClientShift) + seq;
}

// Coordinates of a client's seq-th insert: a pure function of the seed,
// so any thread can recompute the point behind any id it is shown.
std::vector<double> InsertedCoords(const std::vector<KdPoint>& corpus,
                                   uint64_t seed, PointId id) {
  std::mt19937_64 rng(Mix(seed, id));
  return Jittered(corpus[rng() % kPoints].coords, kJitter, &rng);
}

SpatialQuery MakeRead(std::vector<double> coords, bool range) {
  return range ? SpatialQuery::Range(std::move(coords), kRadius)
               : SpatialQuery::Knn(std::move(coords), kK);
}

std::unique_ptr<SpatialIndex> MakeIndex(const std::vector<KdPoint>& corpus,
                                        Report* report) {
  std::unique_ptr<SpatialIndex> index =
      semtree::MakeSpatialIndex(semtree::BackendKind::kKdTree, kDims);
  const Status st = index->BulkLoad(corpus);
  if (!st.ok()) {
    report->Fail("KD-tree bulk load: " + st.ToString());
    return nullptr;
  }
  return index;
}

}  // namespace

void RunKdtreeRw(const Args& args, Report* report) {
  const std::vector<KdPoint> corpus = semtree::workload::MakeClusteredCorpus(
      kPoints, kDims, kClusters, args.seed);
  const FlatPoints flat = Flatten(corpus, kDims);

  // Index, engine and the four clients share one CPU: spread over the
  // host's CPUs, steal time that stalls a lock holder stalls every
  // client, and throughput swings 2x from run to run (README.md).
  std::optional<CpuPin> pin(std::in_place, kWorkloadCpus);
  std::vector<double> setup_s;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<SpatialIndex> index;
  for (int r = 0; r < kSetupRepeats; ++r) {
    engine.reset();
    index.reset();
    const Clock::time_point start = Clock::now();
    index = MakeIndex(corpus, report);
    if (index == nullptr) return;
    engine = std::make_unique<QueryEngine>(index.get(), EngineOptions());
    setup_s.push_back(Seconds(start, Clock::now()));
  }

  // inserts_started[c] counts client c's insert calls begun, so an id
  // any answer reports can be checked against what was ever written.
  std::vector<std::atomic<uint64_t>> inserts_started(kClients);
  const CoordsOf coords_of = [&](PointId id) -> const double* {
    thread_local std::vector<double> buffer;
    if (id < kPoints) return flat.rows.data() + id * kDims;
    const uint64_t client = (id - kPoints) >> kClientShift;
    const uint64_t seq = (id - kPoints) & ((uint64_t(1) << kClientShift) - 1);
    if (client >= kClients ||
        seq >= inserts_started[client].load(std::memory_order_acquire)) {
      return nullptr;
    }
    buffer = InsertedCoords(corpus, args.seed, id);
    return buffer.data();
  };

  Tracer tracer(args.trace, kClients + 1);
  std::vector<Client> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(Client{std::mt19937_64(Mix(args.seed, c)),
                             semtree::workload::ZipfianGenerator(
                                 kPoints, kZipfS, Mix(args.seed, c + 100)),
                             {}, 0, 0, ClientLatencies(kPhases)});
  }

  auto op = [&](size_t c, int phase) {
    Client& cl = clients[c];
    ++cl.ops;
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const uint64_t op_id = tracer.NewId(c);
    const uint64_t call_id = tracer.NewId(c);
    if (unit(cl.rng) < kWriteShare) {
      const bool insert = cl.live.empty() || unit(cl.rng) < 0.5;
      PointId id;
      if (insert) {
        id = InsertedId(c, inserts_started[c].load(std::memory_order_relaxed));
        inserts_started[c].fetch_add(1, std::memory_order_release);
      } else {
        id = cl.live.front();
      }
      const std::vector<double> coords = InsertedCoords(corpus, args.seed, id);
      const Clock::time_point start = Clock::now();
      const Status st =
          insert ? engine->Insert(coords, id) : engine->Remove(coords, id);
      const Clock::time_point end = Clock::now();
      tracer.Record(c, call_id, "engine.write", start, end, op_id, op_id);
      if (!st.ok()) {
        ++cl.failed;
        return;
      }
      if (insert) {
        cl.live.push_back(id);
      } else {
        cl.live.pop_front();
      }
      if (phase >= 0) cl.lat.phases[phase][kWrite].Add(Micros(start, end));
      tracer.Record(c, op_id, "op.write", start, Clock::now(), 0, op_id);
      return;
    }
    const bool range = unit(cl.rng) < kRangeShare;
    const uint64_t rotation = phase < 0 ? 0 : uint64_t(phase) * kHotSetRotation;
    const SpatialQuery q =
        MakeRead(corpus[(cl.zipf.Next() + rotation) % kPoints].coords, range);
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
    tracer.Record(c, op_id, range ? "op.range" : "op.knn", start,
                  Clock::now(), 0, op_id);
  };

  // Sweep: between phases, one whole batch of fresh queries through
  // QueryEngine::Run; spread over the run like the phases, its median
  // sees the same host as the window does. The index changes between
  // batches, so their answers get the shape check; the exact check
  // against the ledger comes at the end.
  std::vector<double> sweep_s;
  std::mt19937_64 sweep_rng(Mix(args.seed, 777));
  auto sweep = [&](int finished) {
    if (finished < 0) return;
    std::vector<SpatialQuery> batch;
    for (size_t i = 0; i < kSweepQueries; ++i) {
      batch.push_back(MakeRead(
          Jittered(corpus[sweep_rng() % kPoints].coords, kJitter, &sweep_rng),
          i % 3 == 2));
    }
    Result<semtree::BatchResult> res = semtree::BatchResult{};
    sweep_s.push_back(TimeUs([&] { res = engine->Run(batch); }) / 1e6);
    if (!res.ok()) {
      report->Fail("QueryEngine::Run: " + res.status().ToString());
      return;
    }
    for (size_t i = 0; i < batch.size(); i += 16) {
      const SpatialQuery& q = batch[i];
      const bool range = q.type == QueryType::kRange;
      report->Expect(CheckAnswerShape(res->outcomes[i].neighbors,
                                      q.coords.data(), kDims, coords_of,
                                      range ? SIZE_MAX : kK,
                                      range ? kRadius : -1.0));
    }
  };

  const semtree::ShardedResultCache::Stats cache_before =
      engine->cache_stats();
  const std::vector<double> walls = RunPhases(
      kClients, kPhases, args.seconds / kPhases, kWarmupS, op, sweep);
  const semtree::ShardedResultCache::Stats cache_after = engine->cache_stats();
  pin.reset();

  // The benchmark's own ledger: the corpus plus every client's live
  // inserts. The index must hold exactly these points.
  FlatPoints ledger = flat;
  uint64_t attempted = 0, failed = 0;
  for (const Client& cl : clients) {
    attempted += cl.ops;
    failed += cl.failed;
    for (PointId id : cl.live) {
      const std::vector<double> coords = InsertedCoords(corpus, args.seed, id);
      ledger.rows.insert(ledger.rows.end(), coords.begin(), coords.end());
      ledger.ids.push_back(id);
    }
  }
  report->Expect(
      CheckCount("KD-tree size", index->size(), ledger.ids.size()));

  std::mt19937_64 check_rng(Mix(args.seed, 555));
  std::vector<Sample> finals;
  for (size_t i = 0; i < kFinalChecks; ++i) {
    SpatialQuery q = MakeRead(
        Jittered(corpus[check_rng() % kPoints].coords, kJitter, &check_rng),
        i % 3 == 2);
    Result<QueryOutcome> out = engine->RunOne(q);
    if (!out.ok()) {
      report->Fail("final check query: " + out.status().ToString());
      continue;
    }
    finals.push_back({std::move(q), std::move(out->neighbors)});
  }

  std::vector<const Sample*> ptrs;
  for (const Sample& s : finals) ptrs.push_back(&s);
  double unused_recall = 0.0;
  size_t unused_n = 0;
  CheckSamples(ledger, ptrs, report, &unused_recall, &unused_n);

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
  report->Add("write_p50_us", loop.p50_us[kWrite], "us");
  report->Add("write_p99_us", loop.p99_us[kWrite], "us");
  report->Add("sweep_s", Median(sweep_s), "s");

  if (!args.trace) {
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run: the window's spans give the engine under contention; a
  // quiescent probe on fresh queries gives the backend alone, and a
  // twin index the backend's own write cost.
  report->Add("trace.throughput_ops_s", loop.throughput_ops_s, "ops/s");
  report->Add("engine.run_one_us", tracer.MedianUs("engine.run_one"), "us");
  report->Add("engine.write_us", tracer.MedianUs("engine.write"), "us");
  const uint64_t hits = cache_after.hits - cache_before.hits;
  const uint64_t lookups = hits + (cache_after.misses - cache_before.misses);
  report->Add("engine.cache_hit_ratio", lookups ? double(hits) / lookups : 0.0,
              "ratio");
  report->Add("engine.cache_evictions",
              double(cache_after.evictions - cache_before.evictions),
              "count");

  std::mt19937_64 probe_rng(Mix(args.seed, 999));
  std::vector<SpatialQuery> probe;
  for (size_t i = 0; i < kProbeQueries; ++i) {
    probe.push_back(MakeRead(
        Jittered(corpus[probe_rng() % kPoints].coords, kJitter, &probe_rng),
        i % 3 == 2));
  }
  const size_t lane = kClients;
  SearchStats stats;
  for (const SpatialQuery& q : probe) {
    if (q.type == QueryType::kKnn) {
      tracer.Time(lane, "kdtree.knn",
                  [&] { (void)index->KnnSearch(q.coords, q.k, &stats); });
    } else {
      tracer.Time(lane, "kdtree.range", [&] {
        (void)index->RangeSearch(q.coords, q.radius, &stats);
      });
    }
  }
  for (const SpatialQuery& q : probe) {
    tracer.Time(lane,
                q.type == QueryType::kKnn ? "probe.engine.knn"
                                          : "probe.engine.range",
                [&] { (void)engine->RunOne(q); });
  }
  std::unique_ptr<SpatialIndex> twin = MakeIndex(corpus, report);
  if (twin == nullptr) return;
  for (size_t i = 0; i < kProbeQueries; ++i) {
    const PointId id = InsertedId(kClients, i);
    tracer.Time(lane, "kdtree.write",
                [&] { (void)twin->Insert(probe[i].coords, id); });
  }
  for (size_t i = 0; i < kProbeQueries; ++i) {
    const PointId id = InsertedId(kClients, i);
    tracer.Time(lane, "kdtree.write",
                [&] { (void)twin->Remove(probe[i].coords, id); });
  }
  report->Add("engine.overhead_us",
              Median({tracer.MedianUs("probe.engine.knn") -
                          tracer.MedianUs("kdtree.knn"),
                      tracer.MedianUs("probe.engine.range") -
                          tracer.MedianUs("kdtree.range")}),
              "us");
  report->Add("kdtree.knn_us", tracer.MedianUs("kdtree.knn"), "us");
  report->Add("kdtree.range_us", tracer.MedianUs("kdtree.range"), "us");
  report->Add("kdtree.write_us", tracer.MedianUs("kdtree.write"), "us");
  report->Add("engine.write_wait_us",
              tracer.MedianUs("engine.write") - tracer.MedianUs("kdtree.write"),
              "us");
  report->Add("core.points_examined_per_query",
              double(stats.points_examined) / probe.size(), "count");
  report->Add("core.nodes_visited_per_query",
              double(stats.nodes_visited) / probe.size(), "count");
  report->Add("core.kernel_ns_per_distance", KernelNsPerDistance(flat, probe),
              "ns");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  WriteSpans(tracer, args, report);
}

}  // namespace perfbench
