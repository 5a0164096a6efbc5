/// Write-ahead log + durability manager: record codec round trips,
/// torn tails truncate instead of erroring, group commit batches
/// fsyncs, stale temp files are swept, and `WalManager` /
/// `DataTamer::Open` recover a closed store byte-identically —
/// including incremental checkpoints that re-encode only dirty
/// collections.

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "fusion/data_tamer.h"
#include "storage/codec.h"
#include "storage/collection.h"
#include "storage/document_store.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "test_files.h"

namespace dt::storage {
namespace {

WalRecord InsertRecord(const std::string& coll, uint64_t inc, uint64_t epoch,
                       DocId id, int64_t payload) {
  WalRecord rec;
  rec.op = WalRecord::Op::kInsert;
  rec.collection = coll;
  rec.incarnation = inc;
  rec.epoch = epoch;
  rec.id = id;
  rec.doc = DocBuilder().Set("v", payload).Build();
  return rec;
}

std::string StoreBytes(const DocumentStore& store) {
  std::string out;
  EXPECT_TRUE(EncodeStoreSnapshot(store, {}, &out).ok());
  return out;
}

TEST(WalCodecTest, RecordRoundTripAllOps) {
  std::vector<WalRecord> recs;
  recs.push_back(InsertRecord("instance", 7, 3, 42, 99));
  {
    WalRecord r = InsertRecord("entity", 8, 4, 43, 100);
    r.op = WalRecord::Op::kUpdate;
    recs.push_back(r);
  }
  {
    WalRecord r;
    r.op = WalRecord::Op::kRemove;
    r.collection = "entity";
    r.incarnation = 8;
    r.epoch = 5;
    r.id = 41;
    recs.push_back(r);
  }
  {
    WalRecord r;
    r.op = WalRecord::Op::kCreateIndex;
    r.collection = "instance";
    r.incarnation = 7;
    r.epoch = 4;
    r.index_paths = {"name", "type"};
    recs.push_back(r);
  }
  {
    WalRecord r;
    r.op = WalRecord::Op::kCreateCollection;
    r.collection = "extra";
    r.incarnation = 11;
    r.ns = "dt.extra";
    r.num_shards = 4;
    r.initial_extent_size_bytes = 1 << 12;
    r.max_extent_size_bytes = 1 << 20;
    recs.push_back(r);
  }
  {
    WalRecord r;
    r.op = WalRecord::Op::kDropCollection;
    r.collection = "extra";
    r.incarnation = 11;
    recs.push_back(r);
  }
  for (const WalRecord& rec : recs) {
    std::string payload;
    ASSERT_TRUE(EncodeWalRecord(rec, &payload).ok());
    WalRecord back;
    ASSERT_TRUE(DecodeWalRecord(payload, &back).ok());
    EXPECT_EQ(back.op, rec.op);
    EXPECT_EQ(back.collection, rec.collection);
    EXPECT_EQ(back.incarnation, rec.incarnation);
    EXPECT_EQ(back.epoch, rec.epoch);
    EXPECT_EQ(back.id, rec.id);
    EXPECT_EQ(back.index_paths, rec.index_paths);
    EXPECT_EQ(back.ns, rec.ns);
    EXPECT_EQ(back.num_shards, rec.num_shards);
    if (rec.op == WalRecord::Op::kInsert ||
        rec.op == WalRecord::Op::kUpdate) {
      EXPECT_TRUE(back.doc.Equals(rec.doc));
    }
  }
}

TEST(WalCodecTest, DecodeRejectsTruncationAndTrailingBytes) {
  std::string payload;
  ASSERT_TRUE(
      EncodeWalRecord(InsertRecord("c", 1, 1, 5, 7), &payload).ok());
  WalRecord out;
  // Every proper prefix must fail cleanly, never crash.
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        DecodeWalRecord(std::string_view(payload.data(), len), &out).ok());
  }
  EXPECT_FALSE(DecodeWalRecord(payload + "x", &out).ok());
}

TEST(WalSegmentTest, TornTailTruncatesToValidPrefix) {
  std::string file;
  AppendWalFileHeader(&file);
  for (int i = 0; i < 3; ++i) {
    std::string payload;
    ASSERT_TRUE(EncodeWalRecord(InsertRecord("c", 1, 1 + i, 10 + i, i),
                                &payload)
                    .ok());
    AppendWalFrame(payload, &file);
  }
  const size_t clean_size = file.size();
  // A torn half-frame: length prefix promising more than exists.
  std::string payload;
  ASSERT_TRUE(EncodeWalRecord(InsertRecord("c", 1, 4, 13, 3), &payload).ok());
  std::string frame;
  AppendWalFrame(payload, &frame);
  file.append(frame, 0, frame.size() / 2);

  std::vector<WalRecord> recs;
  WalReadStats stats;
  ASSERT_TRUE(ReadWalSegment(file, &recs, &stats).ok());
  EXPECT_EQ(recs.size(), 3u);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.valid_bytes, clean_size);
  EXPECT_EQ(stats.torn_bytes, file.size() - clean_size);
}

TEST(WalSegmentTest, ChecksumMismatchEndsRead) {
  std::string file;
  AppendWalFileHeader(&file);
  std::string p1, p2;
  ASSERT_TRUE(EncodeWalRecord(InsertRecord("c", 1, 1, 10, 0), &p1).ok());
  ASSERT_TRUE(EncodeWalRecord(InsertRecord("c", 1, 2, 11, 1), &p2).ok());
  AppendWalFrame(p1, &file);
  const size_t second_start = file.size();
  AppendWalFrame(p2, &file);
  // Flip one payload byte of the second record.
  file[second_start + kWalRecordHeaderSize + 2] ^= 0x40;

  std::vector<WalRecord> recs;
  WalReadStats stats;
  ASSERT_TRUE(ReadWalSegment(file, &recs, &stats).ok());
  EXPECT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].epoch, 1u);
  EXPECT_GT(stats.torn_bytes, 0u);
}

TEST(WalSegmentTest, BadFileHeaderIsCorruption) {
  std::vector<WalRecord> recs;
  WalReadStats stats;
  EXPECT_FALSE(ReadWalSegment("BOGUS123", &recs, &stats).ok());
  EXPECT_FALSE(ReadWalSegment("", &recs, &stats).ok());
  std::string wrong_version;
  AppendWalFileHeader(&wrong_version);
  wrong_version[4] = 9;  // future version
  EXPECT_FALSE(ReadWalSegment(wrong_version, &recs, &stats).ok());
}

TEST(WalWriterTest, AppendsAreReadableInEveryMode) {
  for (Durability mode :
       {Durability::kAsync, Durability::kGroup, Durability::kStrict}) {
    TempPath dir(std::string("writer_") + DurabilityName(mode));
    ASSERT_EQ(::mkdir(dir.path().c_str(), 0755), 0);
    const std::string path = dir.path() + "/wal-1.log";
    auto writer = WalWriter::Create(path, mode);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 20; ++i) {
      std::string payload;
      ASSERT_TRUE(
          EncodeWalRecord(InsertRecord("c", 1, 1 + i, 1 + i, i), &payload)
              .ok());
      ASSERT_TRUE((*writer)->Append(payload).ok());
    }
    ASSERT_TRUE((*writer)->Sync().ok());
    std::vector<WalRecord> recs;
    WalReadStats stats;
    ASSERT_TRUE(ReadWalSegmentFile(path, &recs, &stats).ok());
    EXPECT_EQ(recs.size(), 20u);
    EXPECT_EQ(stats.torn_bytes, 0u);
    WalWriterStats ws = (*writer)->stats();
    EXPECT_EQ(ws.appends, 20u);
    if (mode == Durability::kStrict) EXPECT_GE(ws.syncs, 20u);
  }
}

TEST(WalWriterTest, GroupCommitBatchesConcurrentAppends) {
  TempPath dir("group");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0755), 0);
  auto writer = WalWriter::Create(dir.path() + "/wal-1.log",
                                  Durability::kGroup);
  ASSERT_TRUE(writer.ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string payload;
        ASSERT_TRUE(EncodeWalRecord(
                        InsertRecord("c", 1, 1, 1 + t * kPerThread + i, i),
                        &payload)
                        .ok());
        ASSERT_TRUE((*writer)->Append(payload).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  WalWriterStats ws = (*writer)->stats();
  EXPECT_EQ(ws.appends, static_cast<uint64_t>(kThreads * kPerThread));
  // Every append returned durable, yet leaders syncing for the group
  // keep the fsync count at or below the append count (usually far
  // below — but timing-dependent, so only the invariant is asserted).
  EXPECT_GE(ws.syncs, 1u);
  EXPECT_LE(ws.syncs, ws.appends);
  std::vector<WalRecord> recs;
  WalReadStats stats;
  ASSERT_TRUE(
      ReadWalSegmentFile(dir.path() + "/wal-1.log", &recs, &stats).ok());
  EXPECT_EQ(recs.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(WalWriterTest, WritesThenOneWaitDurableIsOneSync) {
  TempPath dir("write_wait");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0755), 0);
  auto writer = WalWriter::Create(dir.path() + "/wal-1.log",
                                  Durability::kGroup);
  ASSERT_TRUE(writer.ok());
  uint64_t last = 0;
  for (int i = 0; i < 10; ++i) {
    std::string payload;
    ASSERT_TRUE(
        EncodeWalRecord(InsertRecord("c", 1, 1 + i, 1 + i, i), &payload).ok());
    auto seq = (*writer)->Write(payload);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(*seq, last + 1);
    last = *seq;
  }
  EXPECT_EQ((*writer)->stats().syncs, 0u);
  ASSERT_TRUE((*writer)->WaitDurable(last).ok());
  WalWriterStats ws = (*writer)->stats();
  EXPECT_EQ(ws.appends, 10u);
  EXPECT_EQ(ws.syncs, 1u);
  EXPECT_EQ(ws.group_batches, 1u);
  // Already covered: no further fsync.
  ASSERT_TRUE((*writer)->WaitDurable(3).ok());
  EXPECT_EQ((*writer)->stats().syncs, 1u);
}

TEST(SweepStaleTempFilesTest, RemovesDeadPidsKeepsLiveOnes) {
  TempPath dir("sweep");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0755), 0);
  auto touch = [&](const std::string& name) {
    std::ofstream f(dir.path() + "/" + name);
    f << "x";
  };
  // PID 1 is init (alive, and kill(1,0) yields EPERM for non-root —
  // both mean "keep"); a pid far past pid_max is definitely dead.
  touch("snap.dtb.tmp." + std::to_string(::getpid()) + ".1");
  touch("snap.dtb.tmp.999999999.2");
  touch("MANIFEST.tmp.999999999.3");
  touch("not_a_temp.dtb");
  touch("weird.tmp.notdigits.4");
  EXPECT_EQ(SweepStaleTempFiles(dir.path()), 2);
  struct stat st;
  EXPECT_EQ(::stat((dir.path() + "/snap.dtb.tmp." +
                    std::to_string(::getpid()) + ".1")
                       .c_str(),
                   &st),
            0);
  EXPECT_EQ(::stat((dir.path() + "/not_a_temp.dtb").c_str(), &st), 0);
  EXPECT_EQ(::stat((dir.path() + "/weird.tmp.notdigits.4").c_str(), &st), 0);
  EXPECT_NE(::stat((dir.path() + "/snap.dtb.tmp.999999999.2").c_str(), &st),
            0);
}

DurabilityOptions Opts(const std::string& dir,
                       Durability mode = Durability::kGroup) {
  DurabilityOptions opts;
  opts.dir = dir;
  opts.durability = mode;
  opts.checkpoint_wal_bytes = 0;  // manual checkpoints: deterministic
  return opts;
}

TEST(WalManagerTest, RecoversMutationsAcrossReopen) {
  TempPath dir("mgr_basic");
  std::string before;
  {
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
    ASSERT_TRUE(mgr.ok());
    EXPECT_EQ(recovered, nullptr);  // fresh directory

    DocumentStore store("dt");
    Collection* coll = store.CreateCollection("docs").ValueOrDie();
    ASSERT_TRUE((*mgr)->Attach(&store).ok());

    std::vector<DocId> ids;
    for (int i = 0; i < 50; ++i) {
      ids.push_back(coll->Insert(DocBuilder()
                                     .Set("i", static_cast<int64_t>(i))
                                     .Set("name", "doc-" + std::to_string(i))
                                     .Build()));
    }
    ASSERT_TRUE(coll->CreateIndex("name").ok());
    ASSERT_TRUE(
        coll->Update(ids[7], DocBuilder().Set("i", int64_t{700}).Build())
            .ok());
    ASSERT_TRUE(coll->Remove(ids[9]).ok());
    before = StoreBytes(store);
    (*mgr)->DetachAll();
  }
  {
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
    ASSERT_TRUE(mgr.ok());
    ASSERT_NE(recovered, nullptr);
    EXPECT_EQ(StoreBytes(*recovered), before);
    DurabilityStats stats = (*mgr)->stats();
    EXPECT_GT(stats.recovered_records, 0u);
    EXPECT_EQ(stats.recovered_torn_bytes, 0u);
    EXPECT_FALSE(stats.recovery_gap);
  }
}

/// Name -> size of the checkpoint files ("coll-*.dtb") under `dir`.
std::map<std::string, int64_t> CheckpointFiles(const std::string& dir) {
  std::map<std::string, int64_t> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    struct stat st;
    if (name.rfind("coll-", 0) == 0 && name.size() > 9 &&
        name.compare(name.size() - 4, 4, ".dtb") == 0 &&
        ::stat((dir + "/" + name).c_str(), &st) == 0) {
      out[name] = st.st_size;
    }
  }
  ::closedir(d);
  return out;
}

/// Bytes of the checkpoint files in `after` that `before` lacks: what
/// one checkpoint wrote.
int64_t NewCheckpointBytes(const std::map<std::string, int64_t>& before,
                           const std::map<std::string, int64_t>& after) {
  int64_t bytes = 0;
  for (const auto& [name, size] : after) {
    if (before.count(name) == 0) bytes += size;
  }
  return bytes;
}

TEST(WalManagerTest, CheckpointReusesCleanCollections) {
  TempPath dir("mgr_incr");
  std::string before;
  {
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
    ASSERT_TRUE(mgr.ok());
    DocumentStore store("dt");
    std::vector<Collection*> colls;
    for (int c = 0; c < 8; ++c) {
      colls.push_back(
          store.CreateCollection("c" + std::to_string(c)).ValueOrDie());
    }
    ASSERT_TRUE((*mgr)->Attach(&store).ok());
    for (Collection* coll : colls) {
      for (int i = 0; i < 10; ++i) {
        coll->Insert(DocBuilder().Set("i", static_cast<int64_t>(i)).Build());
      }
    }
    ASSERT_TRUE((*mgr)->Checkpoint().ok());
    DurabilityStats s1 = (*mgr)->stats();
    EXPECT_EQ(s1.checkpoint_collections_written, 8u);
    EXPECT_EQ(s1.checkpoint_collections_reused, 0u);
    const std::map<std::string, int64_t> full = CheckpointFiles(dir.path());
    const int64_t full_bytes = NewCheckpointBytes({}, full);

    // Dirty exactly one collection: the next checkpoint re-encodes it
    // alone, reuses the other seven files untouched, and so writes
    // fewer bytes than the full one did.
    colls[2]->Insert(DocBuilder().Set("i", int64_t{999}).Build());
    ASSERT_TRUE((*mgr)->Checkpoint().ok());
    DurabilityStats s2 = (*mgr)->stats();
    EXPECT_EQ(s2.checkpoint_collections_written, 9u);
    EXPECT_EQ(s2.checkpoint_collections_reused, 7u);
    EXPECT_EQ(s2.checkpoints, 2u);
    const int64_t incremental_bytes =
        NewCheckpointBytes(full, CheckpointFiles(dir.path()));
    EXPECT_GT(incremental_bytes, 0);
    EXPECT_LT(incremental_bytes, full_bytes);
    before = StoreBytes(store);
    (*mgr)->DetachAll();
  }
  {
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
    ASSERT_TRUE(mgr.ok());
    ASSERT_NE(recovered, nullptr);
    EXPECT_EQ(StoreBytes(*recovered), before);
    // Post-checkpoint reopen replays only the (empty) tail.
    EXPECT_EQ((*mgr)->stats().recovered_records, 0u);
  }
}

/// Four writers over four collections that share one log: every
/// acknowledged insert survives a cold reopen in each syncing mode.
TEST(WalManagerTest, ConcurrentWritersSurviveColdReopenInEveryMode) {
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 250;
  for (Durability mode :
       {Durability::kAsync, Durability::kGroup, Durability::kStrict}) {
    SCOPED_TRACE(static_cast<int>(mode));
    TempPath dir("mgr_writers");
    {
      std::unique_ptr<DocumentStore> recovered;
      auto mgr = WalManager::Open(Opts(dir.path(), mode), "dt", &recovered);
      ASSERT_TRUE(mgr.ok());
      DocumentStore store("dt");
      std::vector<Collection*> colls;
      for (int w = 0; w < kWriters; ++w) {
        colls.push_back(
            store.CreateCollection("w" + std::to_string(w)).ValueOrDie());
      }
      ASSERT_TRUE((*mgr)->Attach(&store).ok());
      std::vector<std::thread> writers;
      for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&colls, w] {
          for (int i = 0; i < kOpsPerWriter; ++i) {
            colls[w]->Insert(DocBuilder()
                                 .Set("seq", static_cast<int64_t>(i))
                                 .Set("writer", static_cast<int64_t>(w))
                                 .Build());
          }
        });
      }
      for (std::thread& t : writers) t.join();
      ASSERT_TRUE((*mgr)->Flush().ok());
      (*mgr)->DetachAll();
    }
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path(), mode), "dt", &recovered);
    ASSERT_TRUE(mgr.ok());
    ASSERT_NE(recovered, nullptr);
    for (int w = 0; w < kWriters; ++w) {
      auto coll = recovered->GetCollection("w" + std::to_string(w));
      ASSERT_TRUE(coll.ok()) << "w" << w;
      EXPECT_EQ((*coll)->count(), kOpsPerWriter) << "w" << w;
    }
  }
}

TEST(WalManagerTest, DropCollectionDoesNotResurrect) {
  TempPath dir("mgr_drop");
  std::string before;
  {
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
    ASSERT_TRUE(mgr.ok());
    DocumentStore store("dt");
    Collection* keep = store.CreateCollection("keep").ValueOrDie();
    Collection* gone = store.CreateCollection("gone").ValueOrDie();
    ASSERT_TRUE((*mgr)->Attach(&store).ok());
    keep->Insert(DocBuilder().Set("k", int64_t{1}).Build());
    gone->Insert(DocBuilder().Set("g", int64_t{1}).Build());
    // Checkpoint makes "gone" part of the durable baseline, so the
    // drop below must be logged to stick.
    ASSERT_TRUE((*mgr)->Checkpoint().ok());
    // Topology changes go detach -> mutate -> attach: dropping an
    // attached collection would destroy it under the manager's feet.
    (*mgr)->DetachAll();
    ASSERT_TRUE(store.DropCollection("gone").ok());
    // Drop enrollment happens at attach: the manager diffs its
    // lineage map against the store and logs the disappearance.
    ASSERT_TRUE((*mgr)->Attach(&store).ok());
    keep->Insert(DocBuilder().Set("k", int64_t{2}).Build());
    before = StoreBytes(store);
    (*mgr)->DetachAll();
  }
  {
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
    ASSERT_TRUE(mgr.ok());
    ASSERT_NE(recovered, nullptr);
    EXPECT_FALSE(recovered->GetCollection("gone").ok());
    EXPECT_EQ(StoreBytes(*recovered), before);
  }
}

TEST(WalManagerTest, CommitScopeSpansASegmentRotation) {
  TempPath dir("mgr_scope_rotate");
  std::string before;
  {
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
    ASSERT_TRUE(mgr.ok());
    DocumentStore store("dt");
    Collection* coll = store.CreateCollection("docs").ValueOrDie();
    ASSERT_TRUE((*mgr)->Attach(&store).ok());
    const DurabilityStats s0 = (*mgr)->stats();
    {
      WalManager::CommitScope scope(mgr->get());
      for (int i = 0; i < 5; ++i) {
        coll->Insert(DocBuilder().Set("i", static_cast<int64_t>(i)).Build());
      }
      EXPECT_EQ((*mgr)->stats().wal_syncs, s0.wal_syncs);
      // A checkpoint mid-scope rotates the live segment: the scope's
      // later appends land in a second writer.
      ASSERT_TRUE((*mgr)->Checkpoint().ok());
      for (int i = 5; i < 10; ++i) {
        coll->Insert(DocBuilder().Set("i", static_cast<int64_t>(i)).Build());
      }
      ASSERT_TRUE(scope.Commit().ok());
    }
    const DurabilityStats s1 = (*mgr)->stats();
    EXPECT_EQ(s1.wal_appends - s0.wal_appends, 10u);
    // The rotation syncs the retired segment; the commit syncs the
    // live one once.
    EXPECT_EQ(s1.wal_syncs - s0.wal_syncs, 2u);
    before = StoreBytes(store);
    (*mgr)->DetachAll();
  }
  std::unique_ptr<DocumentStore> recovered;
  auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
  ASSERT_TRUE(mgr.ok());
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(StoreBytes(*recovered), before);
}

TEST(WalManagerTest, CommitScopeDoesNotCoverAnotherThread) {
  TempPath dir("mgr_scope_thread");
  std::unique_ptr<DocumentStore> recovered;
  auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
  ASSERT_TRUE(mgr.ok());
  DocumentStore store("dt");
  Collection* a = store.CreateCollection("a").ValueOrDie();
  Collection* b = store.CreateCollection("b").ValueOrDie();
  ASSERT_TRUE((*mgr)->Attach(&store).ok());
  auto syncs = [&] { return (*mgr)->stats().wal_syncs; };

  // Thread A holds a scope open over written, unsynced appends while
  // thread B inserts directly into another collection.
  std::promise<void> a_wrote, b_done;
  std::future<void> b_done_seen = b_done.get_future();
  uint64_t a_commit_syncs = 0;
  std::thread thread_a([&] {
    WalManager::CommitScope scope(mgr->get());
    for (int i = 0; i < 5; ++i) {
      a->Insert(DocBuilder().Set("i", static_cast<int64_t>(i)).Build());
    }
    a_wrote.set_value();
    b_done_seen.wait();
    const uint64_t before = syncs();
    EXPECT_TRUE(scope.Commit().ok());
    a_commit_syncs = syncs() - before;
  });
  a_wrote.get_future().wait();
  const uint64_t s0 = syncs();
  b->Insert(DocBuilder().Set("j", int64_t{1}).Build());
  // B returned after an fsync of its own: A's open scope never syncs.
  EXPECT_EQ(syncs(), s0 + 1);
  b_done.set_value();
  thread_a.join();
  // That fsync covered everything write()n before it, A's appends
  // included, so A's commit found nothing left to sync.
  EXPECT_EQ(a_commit_syncs, 0u);

  // Concurrently: A commits batches in a loop while every direct
  // insert of B still returns only after an fsync that started after
  // its append.
  std::thread batches([&] {
    for (int n = 0; n < 20; ++n) {
      WalManager::CommitScope scope(mgr->get());
      for (int i = 0; i < 10; ++i) {
        a->Insert(DocBuilder().Set("n", static_cast<int64_t>(n)).Build());
      }
      EXPECT_TRUE(scope.Commit().ok());
    }
  });
  for (int i = 0; i < 50; ++i) {
    const uint64_t before = syncs();
    b->Insert(DocBuilder().Set("j", static_cast<int64_t>(i)).Build());
    EXPECT_GT(syncs(), before) << "insert " << i;
  }
  batches.join();
  EXPECT_EQ(a->count(), 205);
  EXPECT_EQ(b->count(), 51);
  EXPECT_TRUE((*mgr)->health().ok());
  (*mgr)->DetachAll();
}

TEST(WalManagerTest, TornSegmentTailRecoversPrefix) {
  TempPath dir("mgr_torn");
  {
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
    ASSERT_TRUE(mgr.ok());
    DocumentStore store("dt");
    Collection* coll = store.CreateCollection("docs").ValueOrDie();
    ASSERT_TRUE((*mgr)->Attach(&store).ok());
    for (int i = 0; i < 10; ++i) {
      coll->Insert(DocBuilder().Set("i", static_cast<int64_t>(i)).Build());
    }
    (*mgr)->DetachAll();
  }
  // Simulate a torn final write: garbage where a frame would start.
  {
    std::ofstream f(dir.path() + "/wal-1.log",
                    std::ios::binary | std::ios::app);
    f << "\x55\x55garbage-torn-tail";
  }
  {
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
    ASSERT_TRUE(mgr.ok());
    ASSERT_NE(recovered, nullptr);
    EXPECT_EQ(recovered->GetCollection("docs").ValueOrDie()->count(), 10);
    DurabilityStats stats = (*mgr)->stats();
    EXPECT_GT(stats.recovered_torn_bytes, 0u);
    EXPECT_FALSE(stats.recovery_gap);  // torn tail, not a gap
  }
}

TEST(WalManagerTest, TornSegmentHeaderRecoversAgain) {
  TempPath dir("mgr_torn_header");
  {
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
    ASSERT_TRUE(mgr.ok());
    DocumentStore store("dt");
    Collection* coll = store.CreateCollection("docs").ValueOrDie();
    ASSERT_TRUE((*mgr)->Attach(&store).ok());
    for (int i = 0; i < 10; ++i) {
      coll->Insert(DocBuilder().Set("i", static_cast<int64_t>(i)).Build());
    }
    (*mgr)->DetachAll();
  }
  // A crash inside the creation of the next segment: half a header.
  Spit(dir.path() + "/wal-2.log", "DT");
  // Every later recovery must still succeed, and what the first one
  // logs must survive the second.
  for (int reopen = 1; reopen <= 2; ++reopen) {
    SCOPED_TRACE("reopen " + std::to_string(reopen));
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    ASSERT_NE(recovered, nullptr);
    Collection* coll = recovered->GetCollection("docs").ValueOrDie();
    EXPECT_EQ(coll->count(), 9 + reopen);
    ASSERT_TRUE((*mgr)->Attach(recovered.get()).ok());
    coll->Insert(DocBuilder().Set("reopen", static_cast<int64_t>(reopen))
                     .Build());
    (*mgr)->DetachAll();
  }
}

TEST(WalManagerTest, OlderCodecManifestIsCorruption) {
  TempPath dir("mgr_oldcodec");
  {
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
    ASSERT_TRUE(mgr.ok());
    DocumentStore store("dt");
    Collection* coll = store.CreateCollection("docs").ValueOrDie();
    ASSERT_TRUE((*mgr)->Attach(&store).ok());
    coll->Insert(DocBuilder().Set("i", int64_t{1}).Build());
    ASSERT_TRUE((*mgr)->Checkpoint().ok());
    (*mgr)->DetachAll();
  }
  const std::string manifest = dir.path() + "/MANIFEST";
  const std::string saved = Slurp(manifest);
  ASSERT_GT(saved.size(), 8u);
  for (uint16_t version = 1; version < kCodecVersion; ++version) {
    std::string buf = saved;
    std::memcpy(&buf[4], &version, sizeof version);  // after the magic
    Spit(manifest, buf);
    std::unique_ptr<DocumentStore> recovered;
    auto mgr = WalManager::Open(Opts(dir.path()), "dt", &recovered);
    ASSERT_TRUE(mgr.status().IsCorruption()) << mgr.status().ToString();
    EXPECT_NE(mgr.status().ToString().find("codec version " +
                                           std::to_string(version)),
              std::string::npos)
        << mgr.status().ToString();
  }
}

TEST(DataTamerDurabilityTest, OpenRecoversFacadeState) {
  TempPath dir("facade");
  fusion::DataTamerOptions opts;
  opts.durability = Opts(dir.path());
  std::string before;
  {
    auto dt = fusion::DataTamer::Open(opts);
    ASSERT_TRUE(dt.ok());
    ASSERT_TRUE((*dt)->durable());
    storage::Collection* inst = (*dt)->instance_collection();
    storage::Collection* ent = (*dt)->entity_collection();
    for (int i = 0; i < 30; ++i) {
      inst->Insert(DocBuilder()
                       .Set("text", "fragment " + std::to_string(i))
                       .Set("source", "feed-" + std::to_string(i % 3))
                       .Build());
      ent->Insert(DocBuilder()
                      .Set("name", "e" + std::to_string(i))
                      .Set("type", i % 2 ? "person" : "movie")
                      .Build());
    }
    ASSERT_TRUE((*dt)->CreateStandardIndexes().ok());
    ASSERT_TRUE((*dt)->durability_health().ok());
    std::string bytes;
    ASSERT_TRUE((*dt)->SaveSnapshot(dir.path() + "/oracle.dtb").ok());
    ASSERT_TRUE(ReadFileToString(dir.path() + "/oracle.dtb", &before).ok());
  }
  {
    auto dt = fusion::DataTamer::Open(opts);
    ASSERT_TRUE(dt.ok());
    EXPECT_EQ((*dt)->instance_collection()->count(), 30);
    EXPECT_EQ((*dt)->entity_collection()->count(), 30);
    EXPECT_GT((*dt)->durability_stats().recovered_records, 0u);
    std::string after;
    ASSERT_TRUE((*dt)->SaveSnapshot(dir.path() + "/recovered.dtb").ok());
    ASSERT_TRUE(
        ReadFileToString(dir.path() + "/recovered.dtb", &after).ok());
    EXPECT_EQ(after, before);
    // The recovered facade serves queries: stitched pagination equals
    // the one-shot find.
    query::QueryRequest req;
    req.collection = "entity";
    req.predicate = query::Predicate::Eq("type", DocValue::Str("person"));
    auto one_shot = (*dt)->Execute(req);
    ASSERT_TRUE(one_shot.ok());
    EXPECT_EQ(one_shot->ids.size(), 15u);
    req.op = query::QueryOp::kFindPage;
    req.page_size = 4;
    std::vector<DocId> stitched;
    while (true) {
      auto page = (*dt)->Execute(req);
      ASSERT_TRUE(page.ok());
      stitched.insert(stitched.end(), page->ids.begin(), page->ids.end());
      if (page->next_token.empty()) break;
      req.resume_token = page->next_token;
    }
    EXPECT_EQ(stitched, one_shot->ids);
  }
}

TEST(DataTamerDurabilityTest, LoadSnapshotRebaselinesDurableState) {
  TempPath dir("facade_load");
  fusion::DataTamerOptions opts;
  opts.durability = Opts(dir.path());
  const std::string snap = dir.path() + "/point.dtb";
  {
    auto dt = fusion::DataTamer::Open(opts);
    ASSERT_TRUE(dt.ok());
    (*dt)->instance_collection()->Insert(
        DocBuilder().Set("text", "keep me").Build());
    ASSERT_TRUE((*dt)->SaveSnapshot(snap).ok());
    // Writes after the snapshot must NOT survive the load below —
    // even though the WAL logged them.
    (*dt)->instance_collection()->Insert(
        DocBuilder().Set("text", "discard me").Build());
    ASSERT_TRUE((*dt)->LoadSnapshot(snap).ok());
    EXPECT_EQ((*dt)->instance_collection()->count(), 1);
  }
  {
    auto dt = fusion::DataTamer::Open(opts);
    ASSERT_TRUE(dt.ok());
    EXPECT_EQ((*dt)->instance_collection()->count(), 1);
    EXPECT_NE((*dt)->instance_collection()->GetView().Get(1), nullptr);
  }
}

}  // namespace
}  // namespace dt::storage
