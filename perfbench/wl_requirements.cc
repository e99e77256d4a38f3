// requirements: the paper's pipeline at the paper's scale. Set-up turns
// about 400 synthetic requirements documents into about 20k triples
// (TripleExtractor::ExtractCorpus) and indexes them
// (SemanticIndex::Build: Eq. 1 distances, FastMap, SemTree). Clients
// then run query-by-example k-NN and range queries with corpus triples
// and with held-out triples of a second generator seed, and the run
// ends with one inconsistency sweep. Its time goes to Eq. 1, taxonomy
// lookups, FastMap projection and SemTree's forwarding k-NN protocol;
// it never touches the engine.

#include <memory>
#include <optional>
#include <random>

#include "distance/triple_distance.h"
#include "geometry.h"
#include "nlp/requirements_corpus.h"
#include "nlp/triple_extractor.h"
#include "ontology/requirements_vocabulary.h"
#include "reqverify/batch_detector.h"
#include "semtree/semantic_index.h"

namespace perfbench {
namespace {

using semtree::CorpusOptions;
using semtree::DistributedSearchStats;
using semtree::FastMap;
using semtree::RequirementsCorpusGenerator;
using semtree::RequirementsDocument;
using semtree::Result;
using semtree::SemanticIndex;
using semtree::SemanticIndexOptions;
using semtree::Taxonomy;
using semtree::Triple;
using semtree::TripleDistance;
using semtree::TripleExtractor;
using semtree::TripleStore;

constexpr size_t kDocuments = 400;
constexpr size_t kHeldOutDocuments = 40;
constexpr size_t kClients = 1;
constexpr int kPhases = 10;
constexpr double kWarmupS = 0.5;
constexpr double kRangeShare = 0.3;
constexpr double kHeldOutShare = 0.5;
constexpr size_t kK = 10;
constexpr double kRadius = 0.02;  // In the FastMap space.
// The indexed corpus is one fixed paper-scale corpus (the generator seed
// bench/fig8_effectiveness.cc uses); --seed draws the query stream and
// the held-out documents. With the corpus drawn from --seed as well,
// FastMap's embedding changed so much between seeds (sweep recall 0.58
// to 0.87, 16 to 72 triples per range answer over ten seeds) that query
// cost varied by 60% between runs of the same code.
constexpr uint64_t kCorpusSeed = 42;
constexpr uint64_t kSampleEvery = 4;
// Kept answers are a uniform reservoir of this size over the run, so the
// benchmark's memory does not grow with throughput.
constexpr size_t kMaxKept = 2048;
constexpr int kSetupRepeats = 3;
constexpr int kSweepEvery = 3;  // Phases between sweeps.
constexpr size_t kProbeQueries = 400;

CorpusOptions Corpus(size_t documents, uint64_t seed) {
  CorpusOptions o;
  o.num_documents = documents;
  o.min_requirements_per_doc = 40;
  o.max_requirements_per_doc = 60;
  o.num_actors = 300;
  o.inconsistency_rate = 0.05;
  o.seed = seed;
  return o;
}

struct Client {
  std::mt19937_64 rng;
  uint64_t ops = 0;
  uint64_t failed = 0;
  ClientLatencies lat;
  struct Kept {
    const Triple* query;
    bool range;
    std::vector<SemanticIndex::Hit> hits;
  };
  std::vector<Kept> kept;
};

std::vector<Neighbor> AsNeighbors(const std::vector<SemanticIndex::Hit>& hits) {
  std::vector<Neighbor> out;
  for (const SemanticIndex::Hit& h : hits) {
    out.push_back({h.id, h.embedded_distance});
  }
  return out;
}

}  // namespace

void RunRequirements(const Args& args, Report* report) {
  const Taxonomy vocab = semtree::RequirementsVocabulary();
  const std::vector<RequirementsDocument> documents =
      RequirementsCorpusGenerator(&vocab, Corpus(kDocuments, kCorpusSeed))
          .Generate();
  const TripleExtractor extractor(&vocab);
  TripleStore held_out;
  {
    const auto extracted = extractor.ExtractCorpus(
        RequirementsCorpusGenerator(
            &vocab, Corpus(kHeldOutDocuments, Mix(args.seed, 1)))
            .Generate(),
        &held_out);
    if (!extracted.ok()) {
      report->Fail("held-out extraction: " + extracted.status().ToString());
      return;
    }
  }

  // The pipeline runs on one CPU: spread over the host's CPUs, the
  // client-to-partition handoffs wake idle CPUs and swing throughput
  // between 3k and 14k ops/s from run to run (README.md).
  std::optional<CpuPin> pin(std::in_place, kWorkloadCpus);

  // Set-up: extraction plus index build, several times; keep the last.
  SemanticIndexOptions iopts;
  iopts.fastmap.dimensions = 8;
  std::vector<double> setup_s, extract_s;
  std::unique_ptr<TripleStore> store;
  std::unique_ptr<SemanticIndex> index;
  for (int r = 0; r < kSetupRepeats; ++r) {
    index.reset();
    store = std::make_unique<TripleStore>();
    const Clock::time_point start = Clock::now();
    const auto extracted = extractor.ExtractCorpus(documents, store.get());
    const Clock::time_point extracted_at = Clock::now();
    if (!extracted.ok()) {
      report->Fail("extraction: " + extracted.status().ToString());
      return;
    }
    auto built = SemanticIndex::Build(&vocab, store->triples(), iopts);
    if (!built.ok()) {
      report->Fail("SemanticIndex::Build: " + built.status().ToString());
      return;
    }
    index = std::move(*built);
    setup_s.push_back(Seconds(start, Clock::now()));
    extract_s.push_back(Seconds(start, extracted_at));
  }

  Result<TripleDistance> fresh = TripleDistance::Make(&vocab);
  if (!fresh.ok()) {
    report->Fail("TripleDistance::Make: " + fresh.status().ToString());
    return;
  }
  const TripleDistance& eq1 = *fresh;
  FlatPoints flat;
  flat.dims = index->fastmap().dimensions();
  flat.rows = index->fastmap().flat_coordinates();
  for (size_t i = 0; i < index->size(); ++i) flat.ids.push_back(i);
  const CoordsOf coords_of = [&flat](PointId id) -> const double* {
    return id < flat.ids.size() ? flat.rows.data() + id * flat.dims
                                : nullptr;
  };

  // Any lazily built vocabulary state is built here, before clients
  // share the index.
  (void)index->KnnQuery(held_out.Get(0), kK);


  Tracer tracer(args.trace, kClients + 1);
  std::vector<Client> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(Client{std::mt19937_64(Mix(args.seed, c)), 0, 0,
                             ClientLatencies(kPhases), {}});
  }
  auto op = [&](size_t c, int phase) {
    Client& cl = clients[c];
    const uint64_t n = cl.ops++;
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const Triple& q =
        unit(cl.rng) < kHeldOutShare
            ? held_out.Get(cl.rng() % held_out.size())
            : store->Get(cl.rng() % store->size());
    const bool range = unit(cl.rng) < kRangeShare;
    const uint64_t op_id = tracer.NewId(c);
    const uint64_t call_id = tracer.NewId(c);
    const Clock::time_point start = Clock::now();
    Result<std::vector<SemanticIndex::Hit>> hits =
        range ? index->RangeQuery(q, kRadius) : index->KnnQuery(q, kK);
    const Clock::time_point end = Clock::now();
    tracer.Record(c, call_id,
                  range ? "semantic_index.range_query"
                        : "semantic_index.knn_query",
                  start, end, op_id, op_id);
    if (!hits.ok()) {
      ++cl.failed;
      return;
    }
    if (phase >= 0) {
      cl.lat.phases[phase][range ? kRange : kKnn].Add(
          Micros(start, end));
    }
    if (n % kSampleEvery == 0) {
      const uint64_t seen = n / kSampleEvery;
      if (cl.kept.size() < kMaxKept) {
        cl.kept.push_back({&q, range, std::move(*hits)});
      } else if (const uint64_t slot = cl.rng() % (seen + 1); slot < kMaxKept) {
        cl.kept[slot] = {&q, range, std::move(*hits)};
      }
    }
    tracer.Record(c, op_id, range ? "op.range" : "op.knn", start,
                  Clock::now(), 0, op_id);
  };

  // The inconsistency sweep, checked against the index-free exact scan.
  // It runs between phases (after the third, sixth and ninth), spread
  // over the run like the phases, so its median sees the same host as
  // the window does.
  std::vector<semtree::InconsistentPair> exact;
  const double exact_ms =
      TimeUs([&] { exact = semtree::ExactInconsistencyScan(*store, vocab); }) /
      1000.0;
  std::vector<double> sweep_s;
  double sweep_recall = 0.0;
  size_t sweep_queries = 0;
  auto sweep = [&] {
    Result<semtree::BatchDetectionReport> found =
        semtree::BatchDetectionReport{};
    sweep_s.push_back(TimeUs([&] {
                        found = semtree::DetectAllInconsistencies(
                            *index, *store, vocab);
                      }) /
                      1e6);
    if (!found.ok()) {
      report->Fail("DetectAllInconsistencies: " + found.status().ToString());
      return;
    }
    report->Expect(CheckSweep(*found, exact, &sweep_recall));
    sweep_queries = found->queries_run;
  };

  // The network counters cover the measured phases only.
  semtree::ClusterStats window_net, phase_start_net =
                                        index->tree().NetworkStats();
  const std::vector<double> walls = RunPhases(
      kClients, kPhases, args.seconds / kPhases, kWarmupS, op,
      [&](int finished) {
        if (finished >= 0) {
          AddNetworkDelta(phase_start_net, index->tree().NetworkStats(),
                          &window_net);
          if (finished % kSweepEvery == kSweepEvery - 1) sweep();
        }
        phase_start_net = index->tree().NetworkStats();
      });
  AddNetworkDelta(phase_start_net, index->tree().NetworkStats(),
                  &window_net);

  // Every kept answer: embedded distances equal brute force over the
  // FastMap coordinates, semantic distances equal a fresh Eq. 1.
  uint64_t attempted = 0, failed = 0;
  size_t range_hits = 0, range_answers = 0;
  for (const Client& cl : clients) {
    attempted += cl.ops;
    failed += cl.failed;
    for (const Client::Kept& k : cl.kept) {
      const std::vector<double> emb = index->Embed(*k.query);
      const std::vector<Neighbor> got = AsNeighbors(k.hits);
      report->Expect(CheckAnswerShape(got, emb.data(), flat.dims, coords_of,
                                      k.range ? SIZE_MAX : kK,
                                      k.range ? kRadius : -1.0));
      if (k.range) {
        report->Expect(CompareRange(
            got,
            BruteRange(flat, emb.data(), kRadius * (1.0 + kDistanceTolerance)),
            kRadius));
        range_hits += got.size();
        ++range_answers;
      } else {
        report->Expect(CompareKnn(got, BruteKnn(flat, emb.data(), kK)));
      }
      for (const SemanticIndex::Hit& h : k.hits) {
        report->Expect(CheckDistance("semantic distance", h.semantic_distance,
                                     eq1(*k.query, store->Get(h.id))));
      }
    }
  }

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
  report->Add("sweep_recall", sweep_recall, "ratio");
  report->Add("triples", double(store->size()), "count");
  report->Add("range_hits_mean",
              range_answers ? double(range_hits) / range_answers : 0.0,
              "count");

  if (!args.trace) {
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  const double window_ops = double(loop.ops);
  report->Add("trace.throughput_ops_s", loop.throughput_ops_s, "ops/s");
  report->Add("nlp.extract_s", Median(extract_s), "s");
  report->Add("reqverify.sweep_queries", double(sweep_queries), "count");
  report->Add("reqverify.exact_scan_ms", exact_ms, "ms");
  report->Add("cluster.messages_per_query", window_net.messages / window_ops,
              "count");
  report->Add("cluster.remote_messages_per_query",
              window_net.remote_messages / window_ops, "count");
  report->Add("cluster.forwards_per_query", window_net.forwards / window_ops,
              "count");
  report->Add("cluster.bytes_per_query", window_net.bytes / window_ops,
              "bytes");

  // Set-up layers one at a time: FastMap training over the same cached
  // Eq. 1 oracle Build uses, then the tree over the trained embedding.
  const std::vector<Triple>& triples = store->triples();
  semtree::CachingTripleDistance cached(eq1);
  Result<FastMap> fm = semtree::Status::Internal("not trained");
  const double train_s =
      TimeUs([&] {
        fm = FastMap::Train(
            triples.size(),
            [&](size_t i, size_t j) { return cached(triples[i], triples[j]); },
            iopts.fastmap);
      }) /
      1e6;
  report->Add("fastmap.train_s", train_s, "s");
  if (!fm.ok()) {
    report->Fail("FastMap::Train: " + fm.status().ToString());
    return;
  }
  Result<std::unique_ptr<SemanticIndex>> restored =
      semtree::Status::Internal("not restored");
  const double restore_s =
      TimeUs([&] {
        restored =
            SemanticIndex::Restore(&vocab, triples, std::move(*fm), iopts);
      }) /
      1e6;
  report->Add("semtree.insert_build_s", restore_s, "s");
  if (!restored.ok()) {
    report->Fail("SemanticIndex::Restore: " + restored.status().ToString());
    return;
  }

  // Query layers one at a time on the kept queries, quiescent.
  const size_t lane = kClients;
  std::vector<const Triple*> probe;
  for (const Client& cl : clients) {
    for (const Client::Kept& k : cl.kept) {
      if (probe.size() < kProbeQueries) probe.push_back(k.query);
    }
  }
  double examined_before = 0.0;
  for (const auto& p : index->tree().AllPartitionStats()) {
    examined_before += p.load_distances;
  }
  std::vector<semtree::SpatialQuery> embedded;
  double partitions = 0.0;
  for (const Triple* q : probe) {
    std::vector<double> emb;
    tracer.Time(lane, "fastmap.embed", [&] { emb = index->Embed(*q); });
    DistributedSearchStats ds;
    Result<std::vector<Neighbor>> nn = std::vector<Neighbor>{};
    tracer.Time(lane, "semtree.knn",
                [&] { nn = index->tree().KnnSearch(emb, kK, &ds); });
    partitions += double(ds.partitions_visited);
    if (nn.ok()) {
      for (const Neighbor& h : *nn) {
        double d = 0.0;
        tracer.Time(lane, "distance.triple",
                    [&] { d = eq1(*q, store->Get(h.id)); });
        (void)d;
      }
    }
    embedded.push_back(semtree::SpatialQuery::Knn(std::move(emb), kK));
  }
  double examined_after = 0.0;
  for (const auto& p : index->tree().AllPartitionStats()) {
    examined_after += p.load_distances;
  }
  const double probes = probe.empty() ? 1.0 : double(probe.size());
  report->Add("fastmap.embed_us", tracer.MedianUs("fastmap.embed"), "us");
  report->Add("semtree.knn_us", tracer.MedianUs("semtree.knn"), "us");
  report->Add("distance.triple_us", tracer.MedianUs("distance.triple"), "us");
  report->Add("semtree.partitions_per_query", partitions / probes, "count");
  report->Add("core.points_examined_per_query",
              (examined_after - examined_before) / probes, "count");
  report->Add("core.kernel_ns_per_distance",
              KernelNsPerDistance(flat, embedded), "ns");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  WriteSpans(tracer, args, report);
}

}  // namespace perfbench
