/// The durable ingest commit (`ingest` ctest label; runs in the
/// sanitizer and TSan CI lanes): one `IngestRecords` batch is one WAL
/// commit — a single group-commit fsync under kGroup, a sync per append
/// under kStrict, none under kAsync — and it is acknowledged only after
/// that commit. A WAL fault (RLIMIT_FSIZE 0 in a forked child) fails
/// the batch it hits; every later ingest, in process or as a kIngest
/// over a `DtServer`, is refused with kUnavailable carrying the cause.
/// Reopening is read-only when nothing diverged (no WAL append, dt.fused
/// and the logged bytes untouched), a real divergence in dt.fused is
/// repaired as one commit, and a repair whose commit fails is an error
/// of `IngestedEntities`, also when asked again.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/dedup_labels.h"
#include "dedup/record.h"
#include "fusion/data_tamer.h"
#include "query/request.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/codec.h"
#include "storage/document_store.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "test_files.h"

namespace dt::fusion {
namespace {

using dedup::DedupRecord;
using storage::DocId;
using storage::DocValue;
using storage::Durability;
using storage::DurabilityStats;

std::vector<DedupRecord> Corpus(int64_t num_pairs) {
  datagen::DedupLabelOptions opts;
  opts.num_pairs = num_pairs;
  opts.seed = 5;
  std::vector<DedupRecord> records;
  for (const auto& p : datagen::GenerateLabeledPairs(
           textparse::EntityType::kPerson, opts)) {
    records.push_back(p.a);
    records.push_back(p.b);
  }
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<int64_t>(i);
  }
  return records;
}

DataTamerOptions DurableOpts(const std::string& dir, Durability mode) {
  DataTamerOptions opts;
  opts.durability.dir = dir;
  opts.durability.durability = mode;
  opts.durability.checkpoint_wal_bytes = 0;  // no background rotation
  return opts;
}

/// WAL counters that one 10-record `IngestRecords` call adds, measured
/// after a warm-up batch has enrolled the ingest collections.
struct BatchDelta {
  uint64_t appends = 0;
  uint64_t syncs = 0;
  uint64_t group_batches = 0;
};

BatchDelta MeasureOneBatch(Durability mode, const std::string& tag) {
  TempPath dir(tag);
  auto tamer = DataTamer::Open(DurableOpts(dir.path(), mode));
  EXPECT_TRUE(tamer.ok()) << tamer.status().ToString();
  if (!tamer.ok()) return {};
  const std::vector<DedupRecord> corpus = Corpus(10);
  std::vector<DedupRecord> warm(corpus.begin(), corpus.begin() + 10);
  std::vector<DedupRecord> batch(corpus.begin() + 10, corpus.begin() + 20);
  EXPECT_TRUE((*tamer)->IngestRecords(std::move(warm)).ok());
  const DurabilityStats before = (*tamer)->durability_stats();
  auto r = (*tamer)->IngestRecords(std::move(batch));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  const DurabilityStats after = (*tamer)->durability_stats();
  return {after.wal_appends - before.wal_appends,
          after.wal_syncs - before.wal_syncs,
          after.wal_group_batches - before.wal_group_batches};
}

TEST(IngestCommitTest, GroupBatchCostsOneSync) {
  const BatchDelta d = MeasureOneBatch(Durability::kGroup, "commit_group");
  // Each record logs itself and upserts at least one fused entity.
  EXPECT_GE(d.appends, 20u);
  EXPECT_EQ(d.syncs, 1u);
  EXPECT_EQ(d.group_batches, 1u);
}

TEST(IngestCommitTest, StrictBatchSyncsEveryAppend) {
  const BatchDelta d = MeasureOneBatch(Durability::kStrict, "commit_strict");
  EXPECT_GE(d.appends, 20u);
  EXPECT_EQ(d.syncs, d.appends);
}

TEST(IngestCommitTest, AsyncBatchSyncsNothing) {
  const BatchDelta d = MeasureOneBatch(Durability::kAsync, "commit_async");
  EXPECT_GE(d.appends, 20u);
  EXPECT_EQ(d.syncs, 0u);
}

/// Child exit codes of the fault scenario (0 = every check held).
enum FaultExit : int {
  kFaultOk = 0,
  kOpenFailed = 10,
  kWarmIngestFailed,
  kServerFailed,
  kRlimitFailed,
  kFaultedBatchAcked,
  kFaultedBatchNotIoError,
  kHealthStillOk,
  kLaterIngestNotUnavailable,
  kLaterIngestLostCause,
  kLaterIngestMutated,
  kWireIngestNotUnavailable,
  kRepairAcked,
  kRepairNotIoError,
  kRepairRetryOk,
};

/// The forked child: a durable kGroup facade served read-write, then
/// every WAL write fails with EFBIG.
[[noreturn]] void RunFaultChild(const std::string& dir) {
  const std::vector<DedupRecord> corpus = Corpus(12);
  auto opened = DataTamer::Open(DurableOpts(dir, Durability::kGroup));
  if (!opened.ok()) _exit(kOpenFailed);
  DataTamer& tamer = **opened;
  std::vector<DedupRecord> warm(corpus.begin(), corpus.begin() + 4);
  if (!tamer.IngestRecords(std::move(warm)).ok()) _exit(kWarmIngestFailed);
  server::DtServer srv(&tamer);
  if (!srv.Start().ok()) _exit(kServerFailed);
  auto cli = server::DtClient::Connect("127.0.0.1", srv.port());
  if (!cli.ok()) _exit(kServerFailed);

  // The fault injector: no file may grow, and the signal that would
  // report it is ignored, so every WAL write() fails with EFBIG.
  std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit lim = {0, 0};
  if (setrlimit(RLIMIT_FSIZE, &lim) != 0) _exit(kRlimitFailed);

  std::vector<DedupRecord> faulted(corpus.begin() + 4, corpus.begin() + 14);
  auto first = tamer.IngestRecords(std::move(faulted));
  if (first.ok()) _exit(kFaultedBatchAcked);
  if (!first.status().IsIOError()) {
    std::fprintf(stderr, "faulted batch: %s\n",
                 first.status().ToString().c_str());
    _exit(kFaultedBatchNotIoError);
  }
  const Status cause = tamer.durability_health();
  if (cause.ok()) _exit(kHealthStillOk);

  const int64_t ingested = tamer.ingest_stats().records_ingested;
  const DurabilityStats wal = tamer.durability_stats();
  std::vector<DedupRecord> later(corpus.begin() + 14, corpus.begin() + 18);
  auto refused = tamer.IngestRecords(std::move(later));
  if (refused.ok() || !refused.status().IsUnavailable()) {
    _exit(kLaterIngestNotUnavailable);
  }
  if (refused.status().message().find(cause.message()) == std::string::npos) {
    std::fprintf(stderr, "refusal: %s\n",
                 refused.status().ToString().c_str());
    _exit(kLaterIngestLostCause);
  }
  // Refused before touching the consolidator or any collection: no
  // record counted, no WAL append attempted.
  if (tamer.ingest_stats().records_ingested != ingested ||
      tamer.durability_stats().wal_appends != wal.wal_appends) {
    _exit(kLaterIngestMutated);
  }

  query::QueryRequest req;
  req.op = query::QueryOp::kIngest;
  req.ingest_records.assign(corpus.begin() + 18, corpus.begin() + 20);
  auto wire = (*cli)->Call(req);
  if (wire.ok() || !wire.status().IsUnavailable()) {
    std::fprintf(stderr, "wire kIngest: %s\n",
                 wire.ok() ? "OK" : wire.status().ToString().c_str());
    _exit(kWireIngestNotUnavailable);
  }
  _exit(kFaultOk);
}

TEST(IngestCommitTest, WalFaultFailsTheBatchAndRefusesLaterIngests) {
  TempPath dir("commit_fault");
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) RunFaultChild(dir.path());
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), kFaultOk)
      << "fault child failed check " << WEXITSTATUS(status)
      << " (see FaultExit)";
}

// ---- reopen: reconcile dt.fused against the record log ---------------

/// Streams `corpus` into a fresh durable facade in batches of `batch`
/// records, then closes it.
void StreamInto(const DataTamerOptions& opts,
                const std::vector<DedupRecord>& corpus, size_t batch) {
  auto tamer = DataTamer::Open(opts);
  ASSERT_TRUE(tamer.ok()) << tamer.status().ToString();
  for (size_t b = 0; b < corpus.size(); b += batch) {
    std::vector<DedupRecord> part(
        corpus.begin() + b,
        corpus.begin() + std::min(b + batch, corpus.size()));
    auto r = (*tamer)->IngestRecords(std::move(part));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

/// Bytes of logged WAL records under `dir`: every segment file minus
/// its header (each open starts a fresh, empty segment).
uint64_t WalRecordBytes(const std::string& dir) {
  uint64_t bytes = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.rfind("wal-", 0) != 0) continue;
    struct stat st;
    if (::stat((dir + "/" + name).c_str(), &st) != 0) continue;
    const auto size = static_cast<uint64_t>(st.st_size);
    bytes += size - std::min<uint64_t>(size, storage::kWalFileHeaderSize);
  }
  ::closedir(d);
  return bytes;
}

/// The facade's whole store as `SaveSnapshot` writes it to `path`:
/// documents, ids, indexes and every collection's mutation epoch.
std::string StoreBytes(const DataTamer& tamer, const std::string& path) {
  EXPECT_TRUE(tamer.SaveSnapshot(path).ok());
  return Slurp(path);
}

/// The store snapshot at `path` (null when it does not load).
std::unique_ptr<storage::DocumentStore> LoadStore(const std::string& path) {
  auto store = storage::LoadSnapshot(path);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return store.ok() ? std::move(*store) : nullptr;
}

/// A fused doc without the "_id" its collection stamped, encoded.
std::string WithoutId(const DocValue& doc) {
  DocValue out = DocValue::Object();
  for (const auto& [name, value] : doc.fields()) {
    if (name != "_id") out.Add(name, value);
  }
  std::string bytes;
  EXPECT_TRUE(storage::EncodeDocValue(out, &bytes).ok());
  return bytes;
}

/// cluster_id -> fused doc (without "_id") of one dt.fused collection.
std::map<int64_t, std::string> FusedByCluster(
    const storage::Collection& fused) {
  std::map<int64_t, std::string> out;
  fused.GetView().ForEach([&](DocId id, const DocValue& doc) {
    const DocValue* key = doc.Find("cluster_id");
    const DocValue* stamped = doc.Find("_id");
    EXPECT_TRUE(key != nullptr && key->is_int());
    EXPECT_TRUE(stamped != nullptr && stamped->is_int() &&
                stamped->int_value() == static_cast<int64_t>(id));
    if (key != nullptr && key->is_int()) {
      EXPECT_TRUE(out.emplace(key->int_value(), WithoutId(doc)).second)
          << "two docs for cluster " << key->int_value();
    }
  });
  return out;
}

std::string EntitySetBytes(const std::vector<dedup::CompositeEntity>& set) {
  std::string out;
  for (const auto& e : set) {
    EXPECT_TRUE(storage::EncodeDocValue(dedup::CompositeEntityToDoc(e), &out)
                    .ok());
  }
  return out;
}

/// Streams 240 records in batches, then reopens the directory twice.
/// Each reopen reseeds and reconciles without one WAL append: the
/// store (dt.fused's docs and mutation epoch included), the entity set
/// and the directory's logged bytes stay exactly as the stream left
/// them.
void ExpectCleanReopenIsReadOnly(Durability mode, const std::string& tag) {
  TempPath dir(tag);
  TempPath probe(tag + "_probe");
  const DataTamerOptions opts = DurableOpts(dir.path(), mode);
  const std::vector<DedupRecord> corpus = Corpus(120);
  StreamInto(opts, corpus, 20);
  if (::testing::Test::HasFatalFailure()) return;
  const uint64_t logged = WalRecordBytes(dir.path());
  EXPECT_GT(logged, 0u);

  std::string first_entities;
  for (int reopen = 1; reopen <= 2; ++reopen) {
    SCOPED_TRACE("reopen " + std::to_string(reopen));
    auto tamer = DataTamer::Open(opts);
    ASSERT_TRUE(tamer.ok()) << tamer.status().ToString();
    const std::string before = StoreBytes(**tamer, probe.path());
    auto before_store = LoadStore(probe.path());
    ASSERT_NE(before_store, nullptr);
    auto before_fused = before_store->GetCollection("fused");
    ASSERT_TRUE(before_fused.ok());
    const DurabilityStats wal = (*tamer)->durability_stats();

    auto entities = (*tamer)->IngestedEntities();  // reseeds + reconciles
    ASSERT_TRUE(entities.ok()) << entities.status().ToString();
    EXPECT_EQ((*tamer)->durability_stats().wal_appends, wal.wal_appends);
    EXPECT_EQ((*tamer)->durability_stats().wal_syncs, wal.wal_syncs);
    EXPECT_EQ((*tamer)->ingest_stats().seeded_records,
              static_cast<int64_t>(corpus.size()));
    EXPECT_EQ((*tamer)->ingest_stats().fused_repaired, 0);
    EXPECT_TRUE(StoreBytes(**tamer, probe.path()) == before)
        << "reconcile changed the store";
    auto after_store = LoadStore(probe.path());
    ASSERT_NE(after_store, nullptr);
    auto after_fused = after_store->GetCollection("fused");
    ASSERT_TRUE(after_fused.ok());
    EXPECT_EQ((*after_fused)->mutation_epoch(),
              (*before_fused)->mutation_epoch());
    EXPECT_EQ(FusedByCluster(**after_fused).size(), entities->size());

    if (reopen == 1) {
      first_entities = EntitySetBytes(*entities);
    } else {
      EXPECT_TRUE(EntitySetBytes(*entities) == first_entities)
          << "the entity set changed across reopens";
    }
    tamer->reset();  // close before measuring the directory
    EXPECT_EQ(WalRecordBytes(dir.path()), logged);
  }
}

TEST(IngestCommitTest, CleanReopenIsReadOnlyUnderGroup) {
  ExpectCleanReopenIsReadOnly(Durability::kGroup, "reopen_group");
}

TEST(IngestCommitTest, CleanReopenIsReadOnlyUnderAsync) {
  ExpectCleanReopenIsReadOnly(Durability::kAsync, "reopen_async");
}

/// Text indexes are derived state: building them on the first
/// `SearchFragments` / `SearchEntities` bumps no mutation epoch, logs
/// nothing and leaves the store's snapshot bytes unchanged; writes
/// after that keep both searches current.
TEST(IngestCommitTest, FirstTextSearchChangesNoPersistedState) {
  TempPath dir("text_search_derived");
  TempPath probe("text_search_derived_probe");
  auto tamer = DataTamer::Open(DurableOpts(dir.path(), Durability::kGroup));
  ASSERT_TRUE(tamer.ok()) << tamer.status().ToString();
  storage::Collection* fragments = (*tamer)->instance_collection();
  fragments->Insert(storage::DocBuilder()
                        .Set("text", "Matilda grossed 960,998 at the Shubert")
                        .Build());
  fragments->Insert(
      storage::DocBuilder().Set("text", "Wicked at the Gershwin").Build());
  const std::vector<DedupRecord> corpus = Corpus(20);
  ASSERT_TRUE((*tamer)->IngestRecords(corpus).ok());
  const std::string name = corpus[0].fields.at("name");

  // The snapshot bytes carry every collection's documents, indexes
  // and mutation epoch (dt.fused's included).
  const std::string before = StoreBytes(**tamer, probe.path());
  const uint64_t fragments_epoch = fragments->mutation_epoch();
  const uint64_t appends = (*tamer)->durability_stats().wal_appends;

  EXPECT_EQ((*tamer)->SearchFragments("matilda", 5).size(), 1u);
  EXPECT_FALSE((*tamer)->SearchEntities(name, 5).empty());
  EXPECT_EQ(fragments->mutation_epoch(), fragments_epoch);
  EXPECT_EQ((*tamer)->durability_stats().wal_appends, appends);
  EXPECT_TRUE(StoreBytes(**tamer, probe.path()) == before)
      << "building a text index changed the store";

  // The indexes now live in storage and follow the writes.
  fragments->Insert(
      storage::DocBuilder().Set("text", "Matilda on tour").Build());
  EXPECT_EQ((*tamer)->SearchFragments("matilda", 5).size(), 2u);
  EXPECT_TRUE((*tamer)->SearchEntities("quirkava", 5).empty());
  DedupRecord late = corpus[0];
  late.id = static_cast<int64_t>(corpus.size());
  late.ingest_seq = 0;
  late.fields = {{"name", "Zzyzx Quirkava"}};
  ASSERT_TRUE((*tamer)->IngestRecord(std::move(late)).ok());
  EXPECT_FALSE((*tamer)->SearchEntities("quirkava", 5).empty());
}

/// What `DamageFused` changed: dt.fused as the stream left it (by
/// cluster), and the doc whose text it rewrote.
struct Damage {
  std::map<int64_t, std::string> want;
  DocId rewritten = 0;
  std::string true_text;
};

/// Damages dt.fused three ways through a store attached to the same
/// log: rewrites one doc's text, removes another cluster's doc and
/// inserts an orphan that no cluster owns.
void DamageFused(const DataTamerOptions& opts, Damage* out) {
  std::unique_ptr<storage::DocumentStore> store;
  auto mgr = storage::WalManager::Open(opts.durability, "dt", &store);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE((*mgr)->Attach(store.get()).ok());
  auto fused = store->GetCollection("fused");
  ASSERT_TRUE(fused.ok());
  out->want = FusedByCluster(**fused);
  std::vector<std::pair<DocId, DocValue>> docs;
  (*fused)->GetView().ForEach([&](DocId id, const DocValue& doc) {
    docs.emplace_back(id, doc);
  });
  ASSERT_GE(docs.size(), 2u);
  out->rewritten = docs[0].first;
  out->true_text = docs[0].second.Find("text")->string_value();
  DocValue damaged = docs[0].second;
  damaged.Set("text", DocValue::Str("zzdamaged"));
  ASSERT_TRUE((*fused)->Update(out->rewritten, std::move(damaged)).ok());
  ASSERT_TRUE((*fused)->Remove(docs[1].first).ok());
  (*fused)->Insert(storage::DocBuilder()
                       .Set("cluster_id", int64_t{1} << 40)
                       .Set("text", "zzorphan")
                       .Build());
}

TEST(IngestCommitTest, ReopenRepairsRealDivergenceInOneCommit) {
  TempPath dir("reopen_repair");
  TempPath probe("reopen_repair_probe");
  const DataTamerOptions opts = DurableOpts(dir.path(), Durability::kGroup);
  StreamInto(opts, Corpus(60), 20);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  Damage damage;
  DamageFused(opts, &damage);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  {
    auto tamer = DataTamer::Open(opts);
    ASSERT_TRUE(tamer.ok()) << tamer.status().ToString();
    const DurabilityStats wal = (*tamer)->durability_stats();
    auto entities = (*tamer)->IngestedEntities();
    ASSERT_TRUE(entities.ok()) << entities.status().ToString();
    // One drop, one rewrite, one insert: three appends, one commit.
    EXPECT_EQ((*tamer)->ingest_stats().fused_repaired, 3);
    EXPECT_EQ((*tamer)->durability_stats().wal_appends, wal.wal_appends + 3);
    EXPECT_EQ((*tamer)->durability_stats().wal_syncs, wal.wal_syncs + 1);

    ASSERT_TRUE((*tamer)->SaveSnapshot(probe.path()).ok());
    auto store = LoadStore(probe.path());
    ASSERT_NE(store, nullptr);
    auto fused = store->GetCollection("fused");
    ASSERT_TRUE(fused.ok());
    EXPECT_EQ(FusedByCluster(**fused), damage.want);
    EXPECT_EQ(damage.want.size(), entities->size());

    bool found = false;
    for (const auto& hit : (*tamer)->SearchEntities(damage.true_text, 5)) {
      found = found || hit.doc_id == damage.rewritten;
    }
    EXPECT_TRUE(found) << "no hit for \"" << damage.true_text << "\"";
    EXPECT_TRUE((*tamer)->SearchEntities("zzdamaged").empty());
    EXPECT_TRUE((*tamer)->SearchEntities("zzorphan").empty());
  }

  // The repair is durable: the next reopen has nothing left to do.
  auto tamer = DataTamer::Open(opts);
  ASSERT_TRUE(tamer.ok()) << tamer.status().ToString();
  ASSERT_TRUE((*tamer)->IngestedEntities().ok());
  EXPECT_EQ((*tamer)->ingest_stats().fused_repaired, 0);
  EXPECT_EQ((*tamer)->durability_stats().wal_appends, 0u);
}

/// The forked child: reopens a damaged directory, then every WAL write
/// fails, so reconcile's repair commit fails.
[[noreturn]] void RunRepairFaultChild(const DataTamerOptions& opts) {
  auto opened = DataTamer::Open(opts);
  if (!opened.ok()) _exit(kOpenFailed);
  std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit lim = {0, 0};
  if (setrlimit(RLIMIT_FSIZE, &lim) != 0) _exit(kRlimitFailed);
  auto first = (*opened)->IngestedEntities();
  if (first.ok()) _exit(kRepairAcked);
  if (!first.status().IsIOError()) {
    std::fprintf(stderr, "failed repair: %s\n",
                 first.status().ToString().c_str());
    _exit(kRepairNotIoError);
  }
  // The repairs are applied in memory but not durable: asking again
  // must not turn the failure into a success.
  if ((*opened)->IngestedEntities().ok()) _exit(kRepairRetryOk);
  _exit(kFaultOk);
}

TEST(IngestCommitTest, FailedRepairCommitFailsIngestedEntities) {
  TempPath dir("reopen_repair_fault");
  const DataTamerOptions opts = DurableOpts(dir.path(), Durability::kGroup);
  StreamInto(opts, Corpus(20), 10);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  Damage damage;
  DamageFused(opts, &damage);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) RunRepairFaultChild(opts);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), kFaultOk)
      << "repair fault child failed check " << WEXITSTATUS(status)
      << " (see FaultExit)";
}

}  // namespace
}  // namespace dt::fusion
