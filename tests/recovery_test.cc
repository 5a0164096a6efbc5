/// Crash-point fuzzing of the durability path (the `crash` ctest
/// label): a forked child runs a deterministic mutation workload with
/// interleaved checkpoints and is SIGKILLed by the
/// `storage::crashpoint` hook at a fuzzed byte offset — mid-WAL-append,
/// mid-checkpoint, even mid-file-header. The parent recovers the
/// directory and asserts the result is byte-identical to an
/// uninterrupted oracle replayed to the same epochs, and that the
/// recovered facade passes the stitched-pagination differential.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
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

/// Stitched FindPage pages must equal the one-shot Find on the
/// recovered facade (the pagination differential of the resumable
/// cursor work, run against crash-recovered storage).
void CheckPaginationDifferential(const fusion::DataTamer& dt) {
  // An empty conjunction matches every document.
  auto pred = query::Predicate::And({});
  auto one_shot = dt.Find("entity", pred);
  ASSERT_TRUE(one_shot.ok());
  query::FindOptions opts;
  opts.page_size = 7;
  std::vector<DocId> stitched;
  std::string token;
  while (true) {
    opts.resume_token = token;
    auto page = dt.FindPage("entity", pred, opts);
    ASSERT_TRUE(page.ok());
    stitched.insert(stitched.end(), page->ids.begin(), page->ids.end());
    if (page->next_token.empty()) break;
    token = page->next_token;
  }
  EXPECT_EQ(stitched, *one_shot);
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

}  // namespace
}  // namespace dt::storage
