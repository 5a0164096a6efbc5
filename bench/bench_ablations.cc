/// \file bench_ablations.cc
/// \brief Ablation studies for the design choices DESIGN.md calls out
/// (not in the paper, but validating its architecture):
///
///   A. Blocking vs all-pairs candidate generation (scalability of
///      entity consolidation).
///   B. Composite matcher vs single-signal matchers (schema matching
///      quality on the FTABLES ground truth).
///   C. Synonym dictionary on/off.
///   D. Expert vote count vs mapping accuracy and cost.
///   E. Index-backed vs scan point lookups in the document store.
///   F. Merge policies on conflicting composite fields.
///   P. Streaming ingest: per-record incremental consolidation cost
///      across residencies (must stay ~flat — the candidate bound at
///      work) vs batch re-consolidation (superlinear), streamed-vs-
///      batch byte parity at every scale, and reader QPS retention
///      under a live wire ingest stream.
///
/// The storage, query, serving and durability layers are measured by
/// the repository benchmark (`perfbench/`, per-layer metrics such as
/// `planner.*`, `executor.*`, `wal.*`, `checkpoint.ms` and
/// `server.*`); their correctness bounds live in the ctest suites.
///
/// `--json <path>` additionally writes the headline timings as a flat
/// JSON object (the per-commit artifact CI uploads). `--only <letters>`
/// runs a subset of sections (the bench-smoke ctest entry runs
/// `--only P`), `--fragments <n>` shrinks section P's corpora, and
/// `--require <p1,p2,...>` re-parses the written JSON and fails unless
/// every listed key prefix is present — the smoke-level guarantee that
/// the CI artifact stays well-formed and populated.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/strutil.h"
#include "common/thread_pool.h"
#include "datagen/dedup_labels.h"
#include "dedup/blocking.h"
#include "dedup/consolidation.h"
#include "dedup/record.h"
#include "dedup/streaming.h"
#include "expert/expert.h"
#include "ingest/json.h"
#include "match/global_schema.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "query/request.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/codec.h"
#include "storage/snapshot.h"

namespace {

using namespace dt;
using namespace dt::bench;

/// Headline metrics emitted by --json, in recording order.
std::vector<std::pair<std::string, double>>& JsonMetrics() {
  static std::vector<std::pair<std::string, double>> metrics;
  return metrics;
}

/// Set by any section that detects a failure (a result mismatch or a
/// missed bound); turns into a non-zero exit so CI goes red.
bool& CheckFailed() {
  static bool failed = false;
  return failed;
}

void RecordMetric(const std::string& key, double value) {
  JsonMetrics().emplace_back(key, value);
}

bool WriteJsonMetrics(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  const auto& metrics = JsonMetrics();
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "  \"%s\": %.3f%s\n", metrics[i].first.c_str(),
                 metrics[i].second, i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

void AblationBlocking() {
  PrintSection("A. blocking vs all-pairs (entity consolidation)");
  std::printf("  %-8s %14s %14s %10s %10s\n", "records", "all-pairs",
              "blocked", "reduction", "time(ms)");
  for (int64_t n : {200, 800, 3200}) {
    datagen::DedupLabelOptions opts;
    opts.num_pairs = n / 2;
    auto pairs =
        datagen::GenerateLabeledPairs(textparse::EntityType::kPerson, opts);
    std::vector<dedup::DedupRecord> records;
    for (const auto& p : pairs) {
      records.push_back(p.a);
      records.push_back(p.b);
    }
    auto all = dedup::AllPairs(records);
    Timer t;
    dedup::BlockingStats stats;
    auto blocked =
        dedup::GenerateCandidatePairs(records, dedup::BlockingOptions{},
                                      &stats);
    std::printf("  %-8zu %14s %14s %9.2f%% %10.1f\n", records.size(),
                WithThousandsSep(static_cast<int64_t>(all.size())).c_str(),
                WithThousandsSep(static_cast<int64_t>(blocked.size())).c_str(),
                100.0 * stats.reduction_ratio, t.Millis());
  }
}

double MatcherAccuracy(const match::MatcherWeights& weights,
                       bool use_synonyms, int num_sources) {
  datagen::FTablesGenOptions fopts;
  fopts.num_sources = num_sources;
  datagen::FusionTablesGenerator gen(fopts);
  auto sources = gen.Generate();
  match::SynonymDictionary syn = match::SynonymDictionary::Default();
  match::GlobalSchemaOptions opts;
  opts.weights = weights;
  match::GlobalSchema schema(opts, use_synonyms ? &syn : nullptr);
  int64_t correct = 0, mapped = 0;
  for (const auto& src : sources) {
    auto results = schema.MatchTable(src.table);
    // Oracle review: accept the top suggestion (isolates ranking
    // quality from threshold placement).
    std::map<std::string, match::GlobalSchema::ReviewResolution> res;
    for (const auto& r : results) {
      if (r.decision == match::MatchDecision::kNeedsReview) {
        res[r.source_attr] = {r.suggestions[0].global_index};
      }
    }
    if (!schema.IntegrateTable(src.table, results, res).ok()) return 0.0;
    for (const auto& [attr, concept_name] : src.attr_concept) {
      int g = schema.MappingOf(src.table.name(), attr);
      if (g < 0) continue;
      ++mapped;
      if (schema.attribute(g).name == concept_name) ++correct;
    }
  }
  return mapped == 0 ? 0.0 : static_cast<double>(correct) / mapped;
}

void AblationMatcherSignals() {
  PrintSection("B/C. matcher signal ablation (mapping accuracy, 20 sources)");
  struct Config {
    const char* name;
    match::MatcherWeights weights;
    bool synonyms;
  };
  std::vector<Config> configs = {
      {"composite (name+value+sem)", {0.55, 0.30, 0.15}, true},
      {"name only", {1.0, 0.0, 0.0}, true},
      {"value only", {0.0, 0.85, 0.15}, true},
      {"composite, no synonyms", {0.55, 0.30, 0.15}, false},
      {"name only, no synonyms", {1.0, 0.0, 0.0}, false},
  };
  std::printf("  %-28s %10s\n", "configuration", "accuracy");
  for (const auto& cfg : configs) {
    Timer t;
    double acc = MatcherAccuracy(cfg.weights, cfg.synonyms, 20);
    std::printf("  %-28s %9.1f%%   (%.0f ms)\n", cfg.name, 100 * acc,
                t.Millis());
  }
  std::printf("  (expected shape: composite+synonyms on top; removing "
              "either evidence\n   channel or the dictionary costs "
              "accuracy)\n");
}

void AblationExpertVotes() {
  PrintSection("D. expert votes per task vs accuracy and cost");
  std::printf("  %-8s %10s %10s\n", "votes", "accuracy", "cost/task");
  for (int votes : {1, 3, 5, 7}) {
    expert::ExpertPool pool;
    pool.AddExpert({"e1", 0.80, 1.0});
    pool.AddExpert({"e2", 0.75, 0.6});
    pool.AddExpert({"e3", 0.70, 0.3});
    Rng rng(99);
    int correct = 0;
    const int kTasks = 2000;
    for (int i = 0; i < kTasks; ++i) {
      expert::ReviewTask task;
      task.options = {"a", "b", "c", "new attribute"};
      task.machine_confidence = 0.5;
      int truth = static_cast<int>(rng.Uniform(4));
      auto r = pool.Resolve(task, truth, votes, &rng);
      if (r.ok() && r->option == truth) ++correct;
    }
    std::printf("  %-8d %9.1f%% %10.2f\n", votes, 100.0 * correct / kTasks,
                pool.total_cost() / pool.tasks_resolved());
  }
}

void AblationIndexLookup() {
  PrintSection("E. index-backed vs full-scan point lookup (dt.entity)");
  BenchScale scale;
  scale.num_fragments = 8000;
  DemoPipeline p = BuildDemoPipeline(scale, true, false);
  // One query, two access paths: the planner's IXSCAN on the "name"
  // index, and the same query with indexes disabled (COLLSCAN).
  const storage::CollectionView view = p.tamer->entity_collection()->GetView();
  const query::PredicatePtr pred =
      query::Predicate::Eq("name", storage::DocValue::Str("Matilda"));
  query::FindOptions scan;
  scan.use_indexes = false;

  Timer t1;
  std::vector<storage::DocId> via_index;
  for (int i = 0; i < 50; ++i) via_index = query::Find(view, pred).ValueOrDie();
  double idx_ms = t1.Millis() / 50;

  Timer t2;
  std::vector<storage::DocId> via_scan;
  for (int i = 0; i < 50; ++i) {
    via_scan = query::Find(view, pred, scan).ValueOrDie();
  }
  double scan_ms = t2.Millis() / 50;
  if (via_index != via_scan) {
    std::printf("  FAILED: index and scan lookups disagree\n");
    CheckFailed() = true;
  }
  std::printf("  docs: %s\n", WithThousandsSep(view.count()).c_str());
  std::printf("  index lookup:  %8.3f ms (%zu hits)\n", idx_ms,
              via_index.size());
  std::printf("  full scan:     %8.3f ms\n", scan_ms);
  std::printf("  speedup:       %8.1fx\n",
              idx_ms > 0 ? scan_ms / idx_ms : 0.0);
}

void AblationMergePolicies() {
  PrintSection("F. merge policies on conflicting composite fields");
  std::vector<dedup::DedupRecord> recs;
  auto mk = [&](int64_t id, const char* src, int trust, int64_t seq,
                const char* price) {
    dedup::DedupRecord r;
    r.id = id;
    r.entity_type = "Movie";
    r.fields["name"] = "Matilda";
    r.fields["price"] = price;
    r.source_id = src;
    r.trust_priority = trust;
    r.ingest_seq = seq;
    recs.push_back(r);
  };
  mk(1, "curated", 10, 1, "$27");
  mk(2, "aggregator", 5, 2, "$29");
  mk(3, "crawl", 1, 3, "$29");
  mk(4, "stale-feed", 1, 4, "$35 (expired)");
  std::vector<size_t> all = {0, 1, 2, 3};
  for (auto policy :
       {dedup::MergePolicy::kSourcePriority, dedup::MergePolicy::kMajority,
        dedup::MergePolicy::kLongest, dedup::MergePolicy::kMostRecent}) {
    auto e = dedup::MergeCluster(recs, all, 0, policy);
    std::printf("  %-16s -> price = %s\n", dedup::MergePolicyName(policy),
                e.fields.at("price").c_str());
  }
}

// ---- P. streaming ingest ----------------------------------------------

std::vector<dedup::DedupRecord> StreamingCorpus(int64_t num_records,
                                                uint64_t seed) {
  datagen::DedupLabelOptions lopts;
  lopts.num_pairs = (num_records + 1) / 2;
  lopts.seed = seed;
  auto pairs =
      datagen::GenerateLabeledPairs(textparse::EntityType::kPerson, lopts);
  std::vector<dedup::DedupRecord> records;
  records.reserve(pairs.size() * 2);
  for (const auto& p : pairs) {
    records.push_back(p.a);
    records.push_back(p.b);
  }
  records.resize(static_cast<size_t>(num_records));
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<int64_t>(i + 1);
    records[i].ingest_seq = static_cast<int64_t>(i + 1);
  }
  return records;
}

void AblationStreamingIngest(int64_t fragments_override) {
  PrintSection(
      "P. streaming ingest: incremental consolidation vs batch re-runs");
  const bool full_scale = fragments_override <= 0;

  // The streaming engine's pitch is O(candidate-neighborhood) work per
  // arriving record. Measure it directly: seed the consolidator to a
  // target residency, then time a probe batch of one-at-a-time
  // ingests. Batch re-consolidation over the same corpus is the
  // baseline that scales superlinearly.
  const int64_t base = full_scale ? 10000 : fragments_override;
  const std::vector<std::pair<const char*, int64_t>> sizes = {
      {"small", base / 10}, {"mid", base}, {"large", base * 5}};
  const int64_t probe = full_scale ? 200 : 40;
  auto corpus = StreamingCorpus(sizes.back().second + probe, 9001);

  dedup::ConsolidationOptions opts;
  // A tight block cap saturates the candidate bound below the smallest
  // residency, so the per-record cost curve shows the bound, not
  // corpus growth (at smoke scale the cap shrinks with the corpus for
  // the same reason). Batch runs use the identical options — parity
  // stays byte-exact.
  opts.blocking.max_block_size = full_scale ? 64 : 8;
  ThreadPool pool(4);

  double per_record_us_small = 0, per_record_us_large = 0;
  for (const auto& [tag, resident] : sizes) {
    std::vector<dedup::DedupRecord> seed_records(
        corpus.begin(), corpus.begin() + resident);
    dedup::StreamingConsolidator sc(opts);
    auto seeded = sc.Seed(seed_records, &pool);
    if (!seeded.ok()) {
      std::printf("  FAILED: seed: %s\n", seeded.ToString().c_str());
      CheckFailed() = true;
      return;
    }
    Timer t;
    for (int64_t i = 0; i < probe; ++i) {
      auto delta = sc.Ingest(corpus[resident + i], &pool);
      if (!delta.ok()) {
        std::printf("  FAILED: ingest: %s\n",
                    delta.status().ToString().c_str());
        CheckFailed() = true;
        return;
      }
    }
    const double per_record_us = t.Millis() * 1000.0 / probe;
    if (std::string(tag) == "small") per_record_us_small = per_record_us;
    if (std::string(tag) == "large") per_record_us_large = per_record_us;

    // The batch alternative: re-consolidate everything per arrival
    // batch. One run over the final corpus stands in for it.
    std::vector<dedup::DedupRecord> all(
        corpus.begin(), corpus.begin() + resident + probe);
    Timer bt;
    auto batch = dedup::Consolidate(all, opts, nullptr, &pool);
    const double batch_ms = bt.Millis();
    if (!batch.ok()) {
      std::printf("  FAILED: batch: %s\n",
                  batch.status().ToString().c_str());
      CheckFailed() = true;
      return;
    }

    // Parity: the streamed state must be byte-identical to the batch
    // oracle over the same corpus (the tentpole invariant, re-proved
    // at bench scale on every run).
    auto streamed = sc.Entities(&pool);
    bool identical = streamed.ok() && streamed->size() == batch->size();
    if (identical) {
      for (size_t g = 0; g < batch->size(); ++g) {
        std::string a, b;
        storage::EncodeDocValue(dedup::CompositeEntityToDoc((*batch)[g]),
                                &a);
        storage::EncodeDocValue(dedup::CompositeEntityToDoc((*streamed)[g]),
                                &b);
        if (a != b) {
          identical = false;
          break;
        }
      }
    }
    if (!identical) {
      std::printf("  FAILED: streamed entities differ from batch at "
                  "%s residency\n", tag);
      CheckFailed() = true;
    }
    std::printf("  %-10s %8s resident: %8.1f us/record ingest, "
                "%9.1f ms batch re-run, parity %s\n",
                tag, WithThousandsSep(resident).c_str(), per_record_us,
                batch_ms, identical ? "yes" : "NO");
    RecordMetric(std::string("ingest_per_record_us_") + tag, per_record_us);
    RecordMetric(std::string("ingest_batch_ms_") + tag, batch_ms);
  }
  const double cost_ratio =
      per_record_us_small > 0 ? per_record_us_large / per_record_us_small
                              : 0.0;
  std::printf("  %-38s %9.2fx (large/small residency)\n",
              "per-record cost growth", cost_ratio);
  if (cost_ratio > 3.0) {
    std::printf("  FAILED: per-record ingest cost grew %.2fx from %lld to "
                "%lld resident records (bound: 3x)\n",
                cost_ratio, static_cast<long long>(sizes.front().second),
                static_cast<long long>(sizes.back().second));
    CheckFailed() = true;
  }
  RecordMetric("ingest_cost_ratio", cost_ratio);

  // Reader throughput under a live ingest stream: 4 wire clients
  // replay the serving workload against a read-write server, first
  // alone, then with one ingest client pushing record batches through
  // kIngest. The facade serializes execution, so this prices the lock
  // hold of incremental consolidation against reader QPS.
  const int kReaders = 4;
  const int kRequestsPerReader = full_scale ? 400 : 60;
  query::QueryRequest read_req;
  read_req.op = query::QueryOp::kFind;
  read_req.collection = "entity";
  read_req.predicate =
      query::Predicate::Eq("type", storage::DocValue::Str("Movie"));
  read_req.order_by = "name";
  read_req.limit = 50;
  auto ingest_corpus = StreamingCorpus(full_scale ? 20000 : 2000, 555);

  struct RetentionRound {
    double qps_baseline = 0;
    double qps_under_ingest = 0;
    int64_t pushed = 0;
    double ingest_secs = 0;
    server::ServerStats stats;
  };
  // One round: a fresh pipeline and server, the read-only baseline,
  // then the same readers beside the ingest stream.
  auto run_round = [&](RetentionRound* out) -> bool {
    BenchScale scale;
    scale.num_fragments = full_scale ? 4000 : fragments_override;
    DemoPipeline p = BuildDemoPipeline(scale, /*ingest_text=*/true,
                                       /*ingest_structured=*/false);
    server::ServerOptions sopts;
    sopts.num_workers = 4;
    server::DtServer srv(p.tamer.get(), sopts);  // mutable: ingest allowed
    if (!srv.Start().ok()) {
      std::printf("  FAILED: server did not start\n");
      CheckFailed() = true;
      return false;
    }

    auto reader_phase = [&](std::atomic<bool>* stop_ingest) -> double {
      std::atomic<int> failures{0};
      std::vector<std::thread> readers;
      Timer wall;
      for (int c = 0; c < kReaders; ++c) {
        readers.emplace_back([&] {
          auto conn = server::DtClient::Connect("127.0.0.1", srv.port());
          if (!conn.ok()) {
            failures.fetch_add(1);
            return;
          }
          for (int i = 0; i < kRequestsPerReader; ++i) {
            auto resp = (*conn)->Call(read_req);
            if (!resp.ok() || resp->ids.empty()) {
              failures.fetch_add(1);
              return;
            }
          }
        });
      }
      for (auto& r : readers) r.join();
      const double secs = wall.Seconds();
      if (stop_ingest != nullptr) stop_ingest->store(true);
      if (failures.load() > 0) {
        std::printf("  FAILED: %d reader thread(s) errored\n",
                    failures.load());
        CheckFailed() = true;
      }
      return secs > 0 ? kReaders * kRequestsPerReader / secs : 0.0;
    };

    // Warm the connection path and caches before timing anything, then
    // take the read-only baseline.
    (void)reader_phase(nullptr);
    out->qps_baseline = reader_phase(nullptr);

    std::atomic<bool> stop{false};
    std::atomic<int64_t> pushed{0};
    Timer ingest_wall;
    std::thread ingester([&] {
      auto conn = server::DtClient::Connect("127.0.0.1", srv.port());
      if (!conn.ok()) {
        CheckFailed() = true;
        return;
      }
      const int kBatch = 10;
      size_t next = 0;
      while (!stop.load() && next + kBatch <= ingest_corpus.size()) {
        query::QueryRequest req;
        req.op = query::QueryOp::kIngest;
        req.ingest_records.assign(ingest_corpus.begin() + next,
                                  ingest_corpus.begin() + next + kBatch);
        next += kBatch;
        auto resp = (*conn)->Call(req);
        if (!resp.ok()) {
          CheckFailed() = true;
          return;
        }
        pushed.fetch_add(resp->ingested);
        // A steady arrival stream, not a saturating firehose: yield the
        // facade between batches so the measurement prices ingest load,
        // not a pathological mutex hog.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    out->qps_under_ingest = reader_phase(&stop);
    ingester.join();
    out->ingest_secs = ingest_wall.Seconds();
    out->pushed = pushed.load();
    out->stats = srv.stats();
    srv.Stop();
    return true;
  };

  // One reader phase lasts tens of milliseconds, so anything else
  // scheduled on the host can halve a single phase and read as lost
  // retention. Each round repeats the whole measurement from a fresh
  // server, and the gate takes the median round: a stall in one phase
  // moves one round, not the median.
  const int kRounds = 5;
  std::vector<RetentionRound> rounds(kRounds);
  for (RetentionRound& round : rounds) {
    if (!run_round(&round)) return;
  }
  const auto ratio = [](const RetentionRound& r) {
    return r.qps_baseline > 0 ? r.qps_under_ingest / r.qps_baseline : 0.0;
  };
  std::sort(rounds.begin(), rounds.end(),
            [&](const RetentionRound& x, const RetentionRound& y) {
              return ratio(x) < ratio(y);
            });
  const RetentionRound& median = rounds[kRounds / 2];
  const double retention = ratio(median);
  const double ingest_rate =
      median.ingest_secs > 0
          ? static_cast<double>(median.pushed) / median.ingest_secs
          : 0.0;
  std::printf("  %-38s %10.0f QPS read-only\n", "4 readers",
              median.qps_baseline);
  std::printf("  %-38s %10.0f QPS (+%0.0f records/s ingested)\n",
              "4 readers + 1 ingester", median.qps_under_ingest, ingest_rate);
  std::printf("  %-38s %9.0f%%   median of %d rounds, ingest reqs: %llu\n",
              "reader retention", retention * 100.0, kRounds,
              static_cast<unsigned long long>(median.stats.ingest_requests));
  for (const RetentionRound& round : rounds) {
    if (round.pushed == 0 || round.stats.ingest_records == 0) {
      std::printf("  FAILED: the ingest stream never landed a record\n");
      CheckFailed() = true;
      break;
    }
  }
  if (retention < 0.40) {
    std::printf("  FAILED: reader throughput fell to %.0f%% of read-only "
                "under ingest (floor: 40%%)\n", retention * 100.0);
    CheckFailed() = true;
  }
  RecordMetric("ingest_reader_qps_baseline", median.qps_baseline);
  RecordMetric("ingest_reader_qps_under_ingest", median.qps_under_ingest);
  RecordMetric("ingest_reader_retention", retention);
  RecordMetric("ingest_rate_rps", ingest_rate);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string only;        // section letters to run; empty = all
  std::string require;     // key prefixes the JSON artifact must hold
  int64_t fragments = 0;   // section P corpus override (0 = default)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else if (std::strcmp(argv[i], "--require") == 0 && i + 1 < argc) {
      require = argv[++i];
    } else if (std::strcmp(argv[i], "--fragments") == 0 && i + 1 < argc) {
      if (!ParseInt64(argv[++i], &fragments) || fragments <= 0) {
        std::fprintf(stderr, "--fragments needs a positive integer\n");
        return 2;
      }
    } else {
      // A typo'd flag silently skipping the JSON artifact would defeat
      // the CI job that collects it.
      std::fprintf(stderr,
                   "unknown argument: %s\nusage: %s [--json <path>] "
                   "[--only <section letters>] [--fragments <n>] "
                   "[--require <key prefixes>]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  if (!require.empty() && json_path.empty()) {
    std::fprintf(stderr, "--require needs --json\n");
    return 2;
  }
  const auto run = [&](char section) {
    return only.empty() || only.find(section) != std::string::npos;
  };
  PrintHeader("Ablations: design-choice validation");
  if (run('A')) AblationBlocking();
  if (run('B') || run('C')) AblationMatcherSignals();
  if (run('D')) AblationExpertVotes();
  if (run('E')) AblationIndexLookup();
  if (run('F')) AblationMergePolicies();
  if (run('P')) AblationStreamingIngest(fragments);
  if (!json_path.empty()) {
    if (!WriteJsonMetrics(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %zu metrics to %s\n", JsonMetrics().size(),
                json_path.c_str());
  }
  if (!require.empty()) {
    // Round-trip the artifact through the real parser: the file on
    // disk (not the in-memory metric list) must be valid JSON and
    // carry at least one key per required prefix.
    std::string blob;
    if (!storage::ReadFileToString(json_path, &blob).ok()) {
      std::fprintf(stderr, "--require: cannot read back %s\n",
                   json_path.c_str());
      return 1;
    }
    auto parsed = ingest::ParseJson(blob);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--require: %s is not valid JSON: %s\n",
                   json_path.c_str(), parsed.status().ToString().c_str());
      return 1;
    }
    for (const std::string& prefix : Split(require, ',')) {
      if (prefix.empty()) continue;
      bool found = false;
      for (const auto& field : parsed->fields()) {
        if (field.first.rfind(prefix, 0) == 0) {
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr,
                     "--require: no \"%s*\" key in %s\n", prefix.c_str(),
                     json_path.c_str());
        return 1;
      }
    }
    std::printf("all required key prefixes present (%s)\n", require.c_str());
  }
  if (CheckFailed()) {
    std::fprintf(stderr, "\nFAILED: one or more correctness checks above\n");
    return 1;
  }
  return 0;
}
