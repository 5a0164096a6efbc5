/// Snapshot persistence: collections and stores survive a save/load
/// round trip byte-identically (including a 10k-doc store), indexes
/// are rebuilt, parallel encode/decode matches serial output, and the
/// DataTamer facade serves queries unchanged from a loaded store.

#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/webtext_gen.h"
#include "fusion/data_tamer.h"
#include "query/planner.h"
#include "storage/codec.h"
#include "storage/collection.h"
#include "storage/document_store.h"
#include "test_files.h"

namespace dt::storage {
namespace {

DocValue RandomDoc(Rng* rng, int64_t i) {
  DocBuilder b;
  b.Set("seq", i);
  b.Set("name", "entity-" + std::to_string(rng->Uniform(1000)));
  b.Set("score", (2 * rng->UniformInt(-4000, 4000) + 1) / 16.0);
  b.Set("flag", rng->Bernoulli(0.5));
  if (rng->Bernoulli(0.3)) {
    DocValue arr = DocValue::Array();
    int n = static_cast<int>(rng->Uniform(5));
    for (int k = 0; k < n; ++k) {
      arr.Push(DocValue::Str("tag" + std::to_string(rng->Uniform(50))));
    }
    b.Set("tags", std::move(arr));
  }
  if (rng->Bernoulli(0.2)) {
    b.Set("nested", DocBuilder()
                        .Set("a", static_cast<int64_t>(rng->Uniform(100)))
                        .Set("b", DocValue::Null())
                        .Build());
  }
  return b.Build();
}

void FillCollection(Collection* coll, int64_t n, uint64_t seed) {
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) coll->Insert(RandomDoc(&rng, i));
}

void ExpectSameDocs(const Collection& a, const Collection& b) {
  ASSERT_EQ(a.count(), b.count());
  const CollectionView bv = b.GetView();
  a.GetView().ForEach([&bv](DocId id, const DocValue& doc) {
    const DocValue* other = bv.Get(id);
    ASSERT_NE(other, nullptr) << "id " << id;
    EXPECT_TRUE(doc.Equals(*other)) << "id " << id;
  });
}

TEST(CollectionSnapshotTest, RoundTripsDocsOptionsIndexesAndNextId) {
  CollectionOptions opts;
  opts.num_shards = 4;
  opts.initial_extent_size_bytes = 1 << 12;
  opts.max_extent_size_bytes = 1 << 18;
  Collection coll("dt.widgets", opts);
  FillCollection(&coll, 500, 7);
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  ASSERT_TRUE(coll.CreateIndex("nested.a").ok());
  // Burn some ids so next_id > max live id.
  ASSERT_TRUE(coll.Remove(499).ok());
  ASSERT_TRUE(coll.Remove(500).ok());

  TempPath f("coll");
  ASSERT_TRUE(SaveSnapshot(coll, f.path()).ok());
  auto loaded = LoadCollectionSnapshot(f.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->ns(), "dt.widgets");
  EXPECT_EQ((*loaded)->options().num_shards, 4);
  EXPECT_EQ((*loaded)->options().initial_extent_size_bytes, 1 << 12);
  EXPECT_EQ((*loaded)->options().max_extent_size_bytes, 1 << 18);
  EXPECT_EQ((*loaded)->next_id(), coll.next_id());
  const CollectionView view = (*loaded)->GetView();
  ASSERT_TRUE(view.HasIndex("name"));
  EXPECT_TRUE(view.HasIndex("nested.a"));
  ExpectSameDocs(coll, **loaded);

  // Index-backed lookups behave identically.
  const DocValue key = DocValue::Str("entity-42");
  EXPECT_EQ(coll.GetView().IndexOn("name")->Lookup(key),
            view.IndexOn("name")->Lookup(key));
  // And inserts keep working with fresh ids.
  DocId id = (*loaded)->Insert(DocBuilder().Set("seq", -1).Build());
  EXPECT_EQ(id, coll.next_id());
}

TEST(CollectionSnapshotTest, SaveLoadSaveIsByteIdentical) {
  Collection coll("dt.stuff", {});
  FillCollection(&coll, 300, 11);
  ASSERT_TRUE(coll.CreateIndex("name").ok());

  TempPath f1("first"), f2("second");
  ASSERT_TRUE(SaveSnapshot(coll, f1.path()).ok());
  auto loaded = LoadCollectionSnapshot(f1.path());
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(SaveSnapshot(**loaded, f2.path()).ok());

  const std::string first = Slurp(f1.path());
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, Slurp(f2.path()));
}

TEST(CollectionSnapshotTest, EpochLineageRoundTripsAndOldTokensRejectAfterLoad) {
  Collection coll("dt.entity");
  for (int i = 0; i < 40; ++i) {
    coll.Insert(DocBuilder()
                    .Set("type", "Movie")
                    .Set("rank", static_cast<int64_t>(i))
                    .Build());
  }
  ASSERT_TRUE(coll.CreateIndex("rank").ok());

  // Mint a resume token against the live collection.
  auto pred = query::Predicate::Eq("type", DocValue::Str("Movie"));
  query::FindOptions opts;
  opts.page_size = 10;
  auto page = query::FindPage(coll.GetView(), pred, opts);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  ASSERT_FALSE(page->next_token.empty());

  TempPath f("lineage");
  ASSERT_TRUE(SaveSnapshot(coll, f.path()).ok());
  auto loaded = LoadCollectionSnapshot(f.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The persisted lineage is adopted exactly: same incarnation, same
  // mutation epoch, even though loading replays inserts and index
  // builds internally.
  EXPECT_EQ((*loaded)->incarnation(), coll.incarnation());
  EXPECT_EQ((*loaded)->mutation_epoch(), coll.mutation_epoch());

  // The token still resumes against the original in-memory collection
  // (its version is current there)...
  query::FindOptions resume = opts;
  resume.resume_token = page->next_token;
  auto live = query::FindPage(coll.GetView(), pred, resume);
  EXPECT_TRUE(live.ok()) << live.status().ToString();

  // ...but is rejected as stale by the loaded copy: the random version
  // id is never persisted, so a restart can never false-accept a token
  // minted against a pre-save (or pre-crash) version of the data.
  auto stale = query::FindPage((*loaded)->GetView(), pred, resume);
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsInvalidArgument()) << stale.status().ToString();
  EXPECT_NE(stale.status().ToString().find("stale"), std::string::npos)
      << stale.status().ToString();
}

TEST(CollectionSnapshotTest, CompoundIndexSurvivesSaveLoadSaveByteIdentically) {
  Collection coll("dt.compound", {});
  FillCollection(&coll, 300, 13);
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  ASSERT_TRUE(coll.CreateIndex({"name", "score"}).ok());
  ASSERT_TRUE(coll.CreateIndex({"flag", "nested.a", "seq"}).ok());

  TempPath f1("compound1"), f2("compound2");
  ASSERT_TRUE(SaveSnapshot(coll, f1.path()).ok());
  auto loaded = LoadCollectionSnapshot(f1.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const CollectionView view = (*loaded)->GetView();
  const CollectionView want = coll.GetView();
  EXPECT_EQ(view.IndexSpecs(), want.IndexSpecs());
  EXPECT_TRUE(view.HasIndex("flag,nested.a,seq"));
  const SecondaryIndex* idx = view.IndexOn("name,score");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->width(), 2);
  EXPECT_EQ(idx->entry_count(), coll.count());
  const DocValue key = DocValue::Str("entity-42");
  EXPECT_EQ(idx->Lookup(key), want.IndexOn("name,score")->Lookup(key));

  ASSERT_TRUE(SaveSnapshot(**loaded, f2.path()).ok());
  const std::string first = Slurp(f1.path());
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, Slurp(f2.path()));
}

TEST(CollectionSnapshotTest, OlderVersionsAndImplausibleIndexSpecsCorrupt) {
  Collection coll("dt.bad", {});
  coll.Insert(DocBuilder().Set("a", 1).Build());
  ASSERT_TRUE(coll.CreateIndex({"a", "seq"}).ok());
  TempPath f("badfile");
  ASSERT_TRUE(SaveSnapshot(coll, f.path()).ok());
  const std::string saved = Slurp(f.path());
  // Loads the saved file with `n` bytes at `at` overwritten by `patch`.
  auto load_patched = [&](size_t at, const void* patch, size_t n) {
    std::string buf = saved;
    std::memcpy(&buf[at], patch, n);
    Spit(f.path(), buf);
    return LoadCollectionSnapshot(f.path()).status();
  };
  for (uint16_t version = 1; version < kCodecVersion; ++version) {
    Status st = load_patched(4, &version, sizeof version);  // after the magic
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.ToString().find("codec version " + std::to_string(version)),
              std::string::npos)
        << st.ToString();
  }
  // The spec is u32 component count 2, then the two path strings; a
  // count of 0 or past the remaining bytes is corrupt.
  const size_t spec =
      saved.find(std::string("\x02\0\0\0\x01\0\0\0a\x03\0\0\0seq", 16));
  ASSERT_NE(spec, std::string::npos);
  for (uint32_t count : {0u, 0xfffffff0u}) {
    Status st = load_patched(spec, &count, sizeof count);
    EXPECT_TRUE(st.IsCorruption()) << count << ": " << st.ToString();
  }
}

TEST(StoreSnapshotTest, TenThousandDocStoreRoundTripsByteIdentically) {
  DocumentStore store("dt");
  Collection* instance = store.GetOrCreateCollection("instance");
  Collection* entity = store.GetOrCreateCollection("entity");
  FillCollection(instance, 10000, 123);
  FillCollection(entity, 2500, 321);
  ASSERT_TRUE(entity->CreateIndex("name").ok());

  std::string first, second;
  ASSERT_TRUE(EncodeStoreSnapshot(store, nullptr, &first).ok());
  auto loaded = DecodeStoreSnapshot(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(EncodeStoreSnapshot(**loaded, nullptr, &second).ok());
  EXPECT_EQ(first, second);  // byte-identical round trip at 10k+ docs

  EXPECT_EQ((*loaded)->db_name(), "dt");
  EXPECT_EQ((*loaded)->CollectionNames(),
            std::vector<std::string>({"entity", "instance"}));
  auto li = (*loaded)->GetCollection("instance");
  ASSERT_TRUE(li.ok());
  ExpectSameDocs(*instance, **li);
  auto le = (*loaded)->GetCollection("entity");
  ASSERT_TRUE(le.ok());
  EXPECT_TRUE((*le)->GetView().HasIndex("name"));
  ExpectSameDocs(*entity, **le);
}

TEST(StoreSnapshotTest, ParallelBytesMatchSerialAndDecodeAgrees) {
  DocumentStore store("dt");
  Collection* coll = store.GetOrCreateCollection("instance");
  FillCollection(coll, 5000, 55);
  // 5000 docs span 10 chunks, the last one short.
  static_assert((5000 + kDocsPerChunk - 1) / kDocsPerChunk == 10 &&
                    5000 % kDocsPerChunk != 0,
                "the store must cover several full chunks and a short one");

  ThreadPool pool(4);
  std::string serial_bytes, parallel_bytes;
  ASSERT_TRUE(EncodeStoreSnapshot(store, nullptr, &serial_bytes).ok());
  ASSERT_TRUE(EncodeStoreSnapshot(store, &pool, &parallel_bytes).ok());
  // Chunk boundaries depend only on document order: identical bytes
  // regardless of the pool.
  EXPECT_EQ(serial_bytes, parallel_bytes);

  // Parallel decode agrees with the source and re-encodes identically.
  auto loaded = DecodeStoreSnapshot(parallel_bytes, &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto lc = (*loaded)->GetCollection("instance");
  ASSERT_TRUE(lc.ok());
  ExpectSameDocs(*coll, **lc);
  std::string reencoded;
  ASSERT_TRUE(EncodeStoreSnapshot(**loaded, &pool, &reencoded).ok());
  EXPECT_EQ(reencoded, serial_bytes);
}

TEST(StoreSnapshotTest, MissingFileIsIOErrorAndCorruptFileIsCorruption) {
  auto missing = LoadSnapshot("/nonexistent/dir/snap.bin");
  EXPECT_TRUE(missing.status().IsIOError()) << missing.status().ToString();

  DocumentStore store("dt");
  FillCollection(store.GetOrCreateCollection("instance"), 50, 5);
  std::string buf;
  ASSERT_TRUE(EncodeStoreSnapshot(store, nullptr, &buf).ok());

  // Every truncation of the snapshot fails cleanly.
  for (size_t cut : {size_t{0}, size_t{4}, size_t{9}, buf.size() / 2,
                     buf.size() - 1}) {
    auto r = DecodeStoreSnapshot(std::string_view(buf.data(), cut));
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  }
  // A collection snapshot is not a store snapshot.
  Collection coll("dt.x", {});
  TempPath f("kind");
  ASSERT_TRUE(SaveSnapshot(coll, f.path()).ok());
  auto wrong_kind = LoadSnapshot(f.path());
  EXPECT_TRUE(wrong_kind.status().IsCorruption());
}

TEST(StoreSnapshotTest, MutatedSnapshotsFailOnlyWithCorruption) {
  DocumentStore store("dt");
  Collection* coll = store.GetOrCreateCollection("instance");
  FillCollection(coll, 200, 9);
  ASSERT_TRUE(coll->CreateIndex("name").ok());
  std::string buf;
  ASSERT_TRUE(EncodeStoreSnapshot(store, nullptr, &buf).ok());

  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = buf;
    int flips = 1 + static_cast<int>(rng.Uniform(3));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    auto r = DecodeStoreSnapshot(mutated);
    if (!r.ok()) {
      // Whatever the mutation hit (doc bytes, ids, chunk directory,
      // index metadata), a bad file must always read as kCorruption.
      EXPECT_TRUE(r.status().IsCorruption())
          << "trial=" << trial << " -> " << r.status().ToString();
    }
  }
}

TEST(DataTamerSnapshotTest, QueriesServeUnchangedFromLoadedStore) {
  datagen::WebTextGenOptions topts;
  topts.num_fragments = 400;
  datagen::WebTextGenerator webgen(topts);
  textparse::Gazetteer gaz = webgen.BuildGazetteer();

  fusion::DataTamer tamer;
  tamer.SetGazetteer(&gaz);
  for (const auto& frag : webgen.Generate()) {
    ASSERT_TRUE(
        tamer.IngestTextFragment(frag.text, frag.feed, frag.timestamp).ok());
  }
  ASSERT_TRUE(tamer.CreateStandardIndexes().ok());

  auto before_top = tamer.TopDiscussed("Movie", 5, false);
  auto before_hits = tamer.SearchFragments("opening night", 5);

  TempPath f("facade");
  ASSERT_TRUE(tamer.SaveSnapshot(f.path()).ok());

  fusion::DataTamer fresh;
  fresh.SetGazetteer(&gaz);
  ASSERT_TRUE(fresh.LoadSnapshot(f.path()).ok());

  EXPECT_EQ(fresh.stats().fragments_ingested, tamer.stats().fragments_ingested);
  EXPECT_EQ(fresh.stats().entities_extracted, tamer.stats().entities_extracted);
  EXPECT_TRUE(fresh.entity_collection()->GetView().HasIndex("name"));

  auto after_top = fresh.TopDiscussed("Movie", 5, false);
  ASSERT_EQ(before_top.size(), after_top.size());
  for (size_t i = 0; i < before_top.size(); ++i) {
    EXPECT_EQ(before_top[i].key, after_top[i].key);
    EXPECT_EQ(before_top[i].count, after_top[i].count);
  }
  auto after_hits = fresh.SearchFragments("opening night", 5);
  ASSERT_EQ(before_hits.size(), after_hits.size());
  for (size_t i = 0; i < before_hits.size(); ++i) {
    EXPECT_EQ(before_hits[i].doc_id, after_hits[i].doc_id);
    EXPECT_DOUBLE_EQ(before_hits[i].score, after_hits[i].score);
  }

  // Loading a garbage file leaves the loaded facade untouched.
  TempPath garbage("garbage");
  Spit(garbage.path(), "not a snapshot");
  EXPECT_FALSE(fresh.LoadSnapshot(garbage.path()).ok());
  EXPECT_EQ(fresh.stats().fragments_ingested,
            tamer.stats().fragments_ingested);
}

}  // namespace
}  // namespace dt::storage
