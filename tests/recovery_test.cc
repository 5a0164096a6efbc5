/// Crash-point fuzzing of the durability path (the `crash` ctest
/// label): a forked child runs a deterministic mutation workload with
/// interleaved checkpoints and is SIGKILLed by the
/// `storage::crashpoint` hook at a fuzzed byte offset — mid-WAL-append,
/// mid-checkpoint, even mid-file-header. The parent recovers the
/// directory and asserts the result is byte-identical to an
/// uninterrupted oracle replayed to the same epochs, and that the
/// recovered facade passes the stitched-pagination differential.
///
/// A second harness crashes a child that streams batched
/// `IngestRecords` calls while small-threshold background checkpoints
/// rotate the WAL segment under them. The child reports every
/// acknowledged batch through a pipe; after recovery each acknowledged
/// record must be in the record log, the resident entity set must equal
/// batch `Consolidate` over that log, and dt.fused must mirror it; a
/// second reopen must then append nothing and reproduce the same
/// entities and dt.fused docs byte for byte.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/dedup_labels.h"
#include "dedup/consolidation.h"
#include "dedup/record.h"
#include "fusion/data_tamer.h"
#include "storage/collection.h"
#include "storage/document_store.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "test_files.h"

namespace dt::storage {
namespace {

constexpr int kOps = 240;
constexpr int kCheckpointEvery = 60;
constexpr uint64_t kWorkloadSeed = 0x5eedf00d;

DurabilityOptions DirOpts(const std::string& dir) {
  DurabilityOptions o;
  o.dir = dir;
  o.durability = Durability::kGroup;
  o.checkpoint_wal_bytes = 0;  // explicit checkpoints: deterministic
  return o;
}

/// One deterministic workload step against the two standard
/// collections. Exactly one committed mutation per call, and the rng
/// consumption is identical no matter which branch runs — child and
/// oracle stay in lockstep at every prefix length.
void ApplyOp(Collection* inst, Collection* ent, Rng* rng, int i) {
  Collection* target = rng->Bernoulli(0.5) ? inst : ent;
  const uint64_t kind = rng->Uniform(100);
  const int64_t payload = static_cast<int64_t>(rng->Uniform(1u << 20));
  if (kind < 70 || target->count() == 0) {
    target->Insert(DocBuilder()
                       .Set("seq", static_cast<int64_t>(i))
                       .Set("v", payload)
                       .Set("name", "doc-" + std::to_string(payload % 97))
                       .Build());
    return;
  }
  // Pick a live id deterministically: ids are assigned 1..next
  // sequentially, so probe upward from the sampled point.
  CollectionView view = target->GetView();
  DocId id = 1 + payload % static_cast<int64_t>(view.next_id() - 1);
  while (view.Get(id) == nullptr) id = id % (view.next_id() - 1) + 1;
  if (kind < 85) {
    Status st = target->Update(
        id, DocBuilder().Set("seq", static_cast<int64_t>(i)).Set(
                             "v", payload + 1).Build());
    (void)st;
  } else {
    Status st = target->Remove(id);
    (void)st;
  }
}

/// The child body: open, run the workload with periodic checkpoints,
/// crash via the byte-budget hook (or SIGKILL at the end if the
/// budget outlives the workload, so the parent sees one code path).
[[noreturn]] void RunChild(const std::string& dir, int64_t crash_budget) {
  crashpoint::g_crash_after_bytes.store(crash_budget);
  fusion::DataTamerOptions opts;
  opts.durability = DirOpts(dir);
  auto dt = fusion::DataTamer::Open(opts);
  if (!dt.ok()) _exit(41);
  Rng rng(kWorkloadSeed);
  Collection* inst = (*dt)->instance_collection();
  Collection* ent = (*dt)->entity_collection();
  for (int i = 0; i < kOps; ++i) {
    if (i > 0 && i % kCheckpointEvery == 0) {
      if (!(*dt)->Checkpoint().ok()) _exit(42);
    }
    ApplyOp(inst, ent, &rng, i);
  }
  raise(SIGKILL);
  _exit(43);
}

std::string StoreBytes(const DocumentStore& store) {
  std::string out;
  EXPECT_TRUE(EncodeStoreSnapshot(store, {}, &out).ok());
  return out;
}

/// Replays the deterministic workload into a fresh oracle store until
/// both collections reach the recovered epochs, then returns its
/// snapshot bytes. The oracle adopts the recovered incarnations so
/// byte identity covers lineage too.
std::string OracleBytes(const DocumentStore& recovered) {
  const Collection* rec_inst =
      recovered.GetCollection("instance").ValueOrDie();
  const Collection* rec_ent = recovered.GetCollection("entity").ValueOrDie();

  DocumentStore oracle("dt");
  fusion::DataTamerOptions defaults;
  Collection* inst =
      oracle.CreateCollection("instance", defaults.collection_options)
          .ValueOrDie();
  Collection* ent =
      oracle.CreateCollection("entity", defaults.collection_options)
          .ValueOrDie();
  inst->RestoreLineage(rec_inst->incarnation(), 0);
  ent->RestoreLineage(rec_ent->incarnation(), 0);

  Rng rng(kWorkloadSeed);
  for (int i = 0; i < kOps; ++i) {
    if (inst->mutation_epoch() == rec_inst->mutation_epoch() &&
        ent->mutation_epoch() == rec_ent->mutation_epoch()) {
      break;
    }
    ApplyOp(inst, ent, &rng, i);
  }
  EXPECT_EQ(inst->mutation_epoch(), rec_inst->mutation_epoch());
  EXPECT_EQ(ent->mutation_epoch(), rec_ent->mutation_epoch());
  return StoreBytes(oracle);
}

/// Stitched kFindPage pages must equal the one-shot kFind on the
/// recovered facade (the pagination differential of the resumable
/// cursor work, run against crash-recovered storage).
void CheckPaginationDifferential(const fusion::DataTamer& dt) {
  query::QueryRequest req;
  req.collection = "entity";
  // An empty conjunction matches every document.
  req.predicate = query::Predicate::And({});
  auto one_shot = dt.Execute(req);
  ASSERT_TRUE(one_shot.ok());
  req.op = query::QueryOp::kFindPage;
  req.page_size = 7;
  std::vector<DocId> stitched;
  while (true) {
    auto page = dt.Execute(req);
    ASSERT_TRUE(page.ok());
    stitched.insert(stitched.end(), page->ids.begin(), page->ids.end());
    if (page->next_token.empty()) break;
    req.resume_token = page->next_token;
  }
  EXPECT_EQ(stitched, one_shot->ids);
}

/// One fuzz trial: crash the child at `crash_budget` written bytes,
/// recover, compare against the oracle.
void RunTrial(int64_t crash_budget, const std::string& tag) {
  SCOPED_TRACE("crash_budget=" + std::to_string(crash_budget));
  TempPath dir(tag);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) RunChild(dir.path(), crash_budget);

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with "
                                   << WEXITSTATUS(status);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  fusion::DataTamerOptions opts;
  opts.durability = DirOpts(dir.path());
  auto dt = fusion::DataTamer::Open(opts);
  ASSERT_TRUE(dt.ok()) << dt.status().ToString();

  // kill -9 never loses write()n bytes, so with every record at least
  // written before its mutation commits, recovery must reach the
  // exact pre-crash state: a prefix of the workload, byte-identical
  // to the oracle replay of that prefix.
  std::string recovered_bytes;
  {
    DocumentStore probe("dt");
    // Snapshot the recovered store through the facade's own save path
    // to reuse the canonical encoding.
    ASSERT_TRUE((*dt)->SaveSnapshot(dir.path() + "/probe.dtb").ok());
    ASSERT_TRUE(
        ReadFileToString(dir.path() + "/probe.dtb", &recovered_bytes).ok());
  }
  auto reloaded = LoadSnapshot(dir.path() + "/probe.dtb");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(recovered_bytes, OracleBytes(**reloaded));
  EXPECT_FALSE((*dt)->durability_stats().recovery_gap);
  CheckPaginationDifferential(**dt);
}

TEST(RecoveryCrashFuzzTest, KillMidAppendRecoversExactPrefix) {
  // Early budgets land inside Open (file header, baseline manifest)
  // and the first WAL appends.
  Rng rng(7);
  for (int t = 0; t < 4; ++t) {
    RunTrial(static_cast<int64_t>(5 + rng.Uniform(600)),
             "early_" + std::to_string(t));
  }
}

TEST(RecoveryCrashFuzzTest, KillMidWorkloadRecoversExactPrefix) {
  // The workload writes ~25-30 KB of WAL plus checkpoint snapshots;
  // budgets across that range cut appends and checkpoint temp files
  // at arbitrary byte offsets.
  Rng rng(11);
  for (int t = 0; t < 6; ++t) {
    RunTrial(static_cast<int64_t>(800 + rng.Uniform(30000)),
             "mid_" + std::to_string(t));
  }
}

TEST(RecoveryCrashFuzzTest, BudgetPastWorkloadRecoversEverything) {
  // The hook never fires; the child SIGKILLs itself after the last op
  // — recovery must reproduce the complete workload.
  RunTrial(int64_t{1} << 40, "full");
}

// ---- crash while an ingest batch commits -------------------------------

constexpr int kIngestBatch = 6;
constexpr int kIngestBatches = 14;

std::vector<dedup::DedupRecord> IngestCorpus() {
  datagen::DedupLabelOptions opts;
  opts.num_pairs = kIngestBatch * kIngestBatches / 2;
  opts.seed = 19;
  std::vector<dedup::DedupRecord> records;
  for (const auto& p : datagen::GenerateLabeledPairs(
           textparse::EntityType::kPerson, opts)) {
    records.push_back(p.a);
    records.push_back(p.b);
  }
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<int64_t>(i);
    records[i].ingest_seq = static_cast<int64_t>(i + 1);
  }
  return records;
}

fusion::DataTamerOptions IngestOpts(const std::string& dir,
                                    uint64_t checkpoint_wal_bytes) {
  fusion::DataTamerOptions opts;
  opts.consolidation_options.blocking.max_block_size = 8;
  opts.durability.dir = dir;
  opts.durability.durability = Durability::kGroup;
  opts.durability.checkpoint_wal_bytes = checkpoint_wal_bytes;
  return opts;
}

/// What the ingest child writes to its ack pipe after the stream's
/// explicit final checkpoint completed (batch acks are positive).
constexpr int32_t kCheckpointDone = -1;

/// The child streams the corpus in batches; a background checkpoint
/// fires every ~2 KB of WAL, i.e. several times per batch. After each
/// acknowledged batch it writes the number of acknowledged batches to
/// `ack_fd` (a pipe write, outside the crash budget). The background
/// checkpoint can lose the race to the last batch, so the stream ends
/// with an explicit `Checkpoint()`, reported as `kCheckpointDone`.
[[noreturn]] void RunIngestChild(const std::string& dir, int64_t crash_budget,
                                 int ack_fd) {
  crashpoint::g_crash_after_bytes.store(crash_budget);
  auto dt = fusion::DataTamer::Open(IngestOpts(dir, 2048));
  if (!dt.ok()) _exit(41);
  const std::vector<dedup::DedupRecord> corpus = IngestCorpus();
  for (int b = 0; b < kIngestBatches; ++b) {
    std::vector<dedup::DedupRecord> batch(
        corpus.begin() + b * kIngestBatch,
        corpus.begin() + (b + 1) * kIngestBatch);
    if (!(*dt)->IngestRecords(std::move(batch)).ok()) _exit(42);
    const int32_t acked = b + 1;
    if (::write(ack_fd, &acked, sizeof acked) != sizeof acked) _exit(43);
  }
  if (!(*dt)->Checkpoint().ok()) _exit(45);
  if (::write(ack_fd, &kCheckpointDone, sizeof kCheckpointDone) !=
      sizeof kCheckpointDone) {
    _exit(43);
  }
  raise(SIGKILL);
  _exit(44);
}

std::string EntityBytesNoId(dedup::CompositeEntity e) {
  // Fused docs carry the stable cluster key, the entity list dense
  // ids; everything else must match byte for byte.
  e.cluster_id = 0;
  std::string out;
  EXPECT_TRUE(EncodeDocValue(dedup::CompositeEntityToDoc(e), &out).ok());
  return out;
}

std::string EntitySetBytes(const std::vector<dedup::CompositeEntity>& set) {
  std::string out;
  for (const auto& e : set) {
    EXPECT_TRUE(EncodeDocValue(dedup::CompositeEntityToDoc(e), &out).ok());
  }
  return out;
}

/// dt.fused exactly as stored: its mutation epoch, then every doc id
/// and encoded doc in id order ("" when the collection is missing).
std::string FusedDocBytes(const DocumentStore& store) {
  auto fused = store.GetCollection("fused");
  if (!fused.ok()) return "";
  const CollectionView view = (*fused)->GetView();
  std::string out = std::to_string(view.mutation_epoch());
  view.ForEach([&](DocId id, const DocValue& doc) {
    out += "|" + std::to_string(id) + ":";
    EXPECT_TRUE(EncodeDocValue(doc, &out).ok());
  });
  return out;
}

bool HasCheckpointFile(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return false;
  bool found = false;
  while (dirent* e = ::readdir(d)) {
    if (std::string(e->d_name).rfind("coll-", 0) == 0) found = true;
  }
  ::closedir(d);
  return found;
}

/// One trial: crash the streaming child at `crash_budget` bytes, then
/// recover and check acknowledged records, streaming == batch and the
/// fused mirror. Returns the number of acknowledged batches.
int RunIngestTrial(int64_t crash_budget, const std::string& tag) {
  SCOPED_TRACE("crash_budget=" + std::to_string(crash_budget));
  TempPath dir(tag);
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    RunIngestChild(dir.path(), crash_budget, fds[1]);
  }
  ::close(fds[1]);
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  int32_t acked = 0, msg = 0;
  bool checkpointed = false;
  while (::read(fds[0], &msg, sizeof msg) == sizeof msg) {
    if (msg == kCheckpointDone) {
      checkpointed = true;
    } else {
      acked = msg;
    }
  }
  ::close(fds[0]);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child exited with " << WEXITSTATUS(status);
  if (checkpointed) {
    EXPECT_EQ(acked, kIngestBatches);
    EXPECT_TRUE(HasCheckpointFile(dir.path()));
  }

  auto dt = fusion::DataTamer::Open(IngestOpts(dir.path(), 0));
  EXPECT_TRUE(dt.ok()) << dt.status().ToString();
  if (!dt.ok()) return acked;
  const uint64_t syncs = (*dt)->durability_stats().wal_syncs;
  auto entities = (*dt)->IngestedEntities();  // reseeds + reconciles
  EXPECT_TRUE(entities.ok()) << entities.status().ToString();
  if (!entities.ok()) return acked;
  EXPECT_FALSE((*dt)->durability_stats().recovery_gap);
  // Whatever the crash left to repair commits as one batch.
  EXPECT_LE((*dt)->durability_stats().wal_syncs, syncs + 1);

  const std::string probe = dir.path() + "/probe.dtb";
  EXPECT_TRUE((*dt)->SaveSnapshot(probe).ok());
  auto store = LoadSnapshot(probe);
  EXPECT_TRUE(store.ok());
  if (!store.ok()) return acked;

  // The recovered record log is a prefix of the stream that holds at
  // least every acknowledged record.
  const std::vector<dedup::DedupRecord> corpus = IngestCorpus();
  std::vector<dedup::DedupRecord> log;
  auto record_coll = (*store)->GetCollection("dedup_record");
  if (record_coll.ok()) {
    (*record_coll)->GetView().ForEach([&](DocId, const DocValue& doc) {
      auto rec = dedup::DedupRecordFromDoc(doc);
      EXPECT_TRUE(rec.ok());
      if (rec.ok()) log.push_back(*rec);
    });
  }
  EXPECT_GE(log.size(), static_cast<size_t>(acked * kIngestBatch));
  EXPECT_LE(log.size(), corpus.size());
  for (size_t i = 0; i < log.size() && i < corpus.size(); ++i) {
    EXPECT_TRUE(dedup::DedupRecordToDoc(log[i]).Equals(
        dedup::DedupRecordToDoc(corpus[i])))
        << "record " << i;
  }

  // Streaming == batch over the recovered log.
  auto batch = dedup::Consolidate(
      log, IngestOpts(dir.path(), 0).consolidation_options);
  EXPECT_TRUE(batch.ok());
  if (!batch.ok()) return acked;
  std::vector<std::string> want;
  EXPECT_EQ(batch->size(), entities->size());
  for (size_t i = 0; i < batch->size() && i < entities->size(); ++i) {
    EXPECT_EQ(EntityBytesNoId((*batch)[i]), EntityBytesNoId((*entities)[i]))
        << "cluster " << i;
    want.push_back(EntityBytesNoId((*batch)[i]));
  }

  // dt.fused holds exactly one doc per entity.
  std::vector<std::string> fused;
  auto fused_coll = (*store)->GetCollection("fused");
  if (fused_coll.ok()) {
    (*fused_coll)->GetView().ForEach([&](DocId, const DocValue& doc) {
      auto e = dedup::CompositeEntityFromDoc(doc);
      EXPECT_TRUE(e.ok());
      if (e.ok()) fused.push_back(EntityBytesNoId(*e));
    });
  }
  std::sort(want.begin(), want.end());
  std::sort(fused.begin(), fused.end());
  EXPECT_EQ(fused, want);

  // Recovery is idempotent: a second reopen finds nothing to repair,
  // appends nothing, and yields the same entities and dt.fused docs.
  dt->reset();
  auto again = fusion::DataTamer::Open(IngestOpts(dir.path(), 0));
  EXPECT_TRUE(again.ok()) << again.status().ToString();
  if (!again.ok()) return acked;
  auto entities_again = (*again)->IngestedEntities();
  EXPECT_TRUE(entities_again.ok()) << entities_again.status().ToString();
  if (!entities_again.ok()) return acked;
  EXPECT_EQ((*again)->durability_stats().wal_appends, 0u);
  EXPECT_EQ((*again)->ingest_stats().fused_repaired, 0);
  EXPECT_TRUE(EntitySetBytes(*entities_again) == EntitySetBytes(*entities))
      << "the entity set changed on the second reopen";
  const std::string probe_again = dir.path() + "/probe_again.dtb";
  EXPECT_TRUE((*again)->SaveSnapshot(probe_again).ok());
  auto store_again = LoadSnapshot(probe_again);
  EXPECT_TRUE(store_again.ok());
  if (!store_again.ok()) return acked;
  EXPECT_TRUE(FusedDocBytes(**store_again) == FusedDocBytes(**store))
      << "dt.fused changed on the second reopen";
  return acked;
}

TEST(IngestCommitCrashTest, KillWhileBatchesCommitKeepsAcknowledgedRecords) {
  // The stream's WAL is ~45 KB; the background checkpoints add 40-180
  // KB more, depending on how often the checkpoint thread wins the
  // race. Budgets up to 60 KB therefore crash mid-stream, cutting WAL
  // appends, segment headers, checkpoint snapshots and manifests at
  // arbitrary offsets.
  Rng rng(23);
  int acked_somewhere = 0;
  for (int t = 0; t < 8; ++t) {
    const int64_t budget = static_cast<int64_t>(200 + rng.Uniform(60000));
    if (RunIngestTrial(budget, "ingest_" + std::to_string(t)) > 0) {
      ++acked_somewhere;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(acked_somewhere, 0);
  EXPECT_EQ(RunIngestTrial(int64_t{1} << 40, "ingest_full"), kIngestBatches);
}

}  // namespace
}  // namespace dt::storage
