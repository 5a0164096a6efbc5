/// Randomized property test for the document store: a few thousand
/// mixed insert/update/remove operations against a shadow model, with
/// index-vs-scan consistency and stats invariants checked throughout.

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "storage/collection.h"

namespace dt::storage {
namespace {

DocValue RandomDoc(Rng* rng) {
  static const char* kTypes[] = {"Movie", "Person", "Company", "City"};
  DocBuilder b;
  b.Set("type", kTypes[rng->Uniform(4)]);
  b.Set("name", "entity_" + std::to_string(rng->Uniform(40)));
  b.Set("score", rng->UniformDouble(0, 100));
  if (rng->Bernoulli(0.3)) {
    b.Set("payload", std::string(rng->Uniform(200), 'x'));
  }
  if (rng->Bernoulli(0.2)) {
    b.Set("extra", DocValue::Null());
  }
  return b.Build();
}

class StorageStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StorageStressTest, ModelConformance) {
  Rng rng(GetParam());
  CollectionOptions opts;
  opts.num_shards = 4;
  opts.initial_extent_size_bytes = 512;
  opts.max_extent_size_bytes = 8192;
  Collection coll("dt.stress", opts);
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  ASSERT_TRUE(coll.CreateIndex("score").ok());

  std::map<DocId, DocValue> model;
  std::vector<DocId> live;

  const int kOps = 3000;
  for (int op = 0; op < kOps; ++op) {
    double r = rng.NextDouble();
    if (r < 0.6 || live.empty()) {
      DocValue doc = RandomDoc(&rng);
      DocId id = coll.Insert(doc);
      const CollectionView view = coll.GetView();
      const DocValue* stored = view.Get(id);
      ASSERT_NE(stored, nullptr);
      model[id] = *stored;  // includes the injected _id
      live.push_back(id);
    } else if (r < 0.8) {
      size_t pick = rng.Uniform(live.size());
      DocId id = live[pick];
      DocValue doc = RandomDoc(&rng);
      ASSERT_TRUE(coll.Update(id, doc).ok());
      model[id] = *coll.GetView().Get(id);
    } else {
      size_t pick = rng.Uniform(live.size());
      DocId id = live[pick];
      ASSERT_TRUE(coll.Remove(id).ok());
      model.erase(id);
      live[pick] = live.back();
      live.pop_back();
    }

    // Periodic invariant checks (every 250 ops to keep runtime sane).
    if (op % 250 != 0) continue;
    ASSERT_EQ(coll.count(), static_cast<int64_t>(model.size()));
    const CollectionView view = coll.GetView();
    // Index lookups agree with a model scan for every type value.
    for (const char* type : {"Movie", "Person", "Company", "City"}) {
      auto ids = view.IndexOn("type")->Lookup(DocValue::Str(type));
      int64_t expected = 0;
      for (const auto& [id, doc] : model) {
        const DocValue* t = doc.Find("type");
        if (t != nullptr && t->is_string() && t->string_value() == type) {
          ++expected;
        }
      }
      ASSERT_EQ(static_cast<int64_t>(ids.size()), expected) << type;
    }
    // Range query over score agrees with the model.
    auto in_range = view.IndexOn("score")->Range(DocValue::Double(25),
                                                 DocValue::Double(75));
    int64_t expected_range = 0;
    for (const auto& [id, doc] : model) {
      const DocValue* s = doc.Find("score");
      if (s != nullptr && s->is_double() && s->double_value() >= 25 &&
          s->double_value() <= 75) {
        ++expected_range;
      }
    }
    ASSERT_EQ(static_cast<int64_t>(in_range.size()), expected_range);
    // Stats stay coherent.
    auto stats = coll.Stats();
    ASSERT_EQ(stats.count, static_cast<int64_t>(model.size()));
    ASSERT_GE(stats.storage_size, 0);
    ASSERT_GE(stats.total_index_size, 0);
    if (stats.count > 0) {
      ASSERT_GT(stats.data_size, 0);
      ASSERT_EQ(stats.avg_obj_size, stats.data_size / stats.count);
    }
  }

  // Final full-content verification.
  int64_t visited = 0;
  coll.GetView().ForEach([&](DocId id, const DocValue& doc) {
    auto it = model.find(id);
    ASSERT_NE(it, model.end());
    ASSERT_TRUE(doc.Equals(it->second));
    ++visited;
  });
  ASSERT_EQ(visited, static_cast<int64_t>(model.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageStressTest,
                         ::testing::Values(1, 42, 1337));

}  // namespace
}  // namespace dt::storage
