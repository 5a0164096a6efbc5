#include "query/query.h"

#include <gtest/gtest.h>

namespace dt::query {
namespace {

using relational::Schema;
using relational::Table;
using relational::Value;
using relational::ValueType;
using storage::Collection;
using storage::DocBuilder;
using storage::DocValue;

Collection MakeEntities() {
  Collection coll("dt.entity");
  auto add = [&](const char* type, const char* name, bool award) {
    auto b = DocBuilder().Set("type", type).Set("name", name);
    if (award) b.Set("award_winning", "true");
    coll.Insert(b.Build());
  };
  for (int i = 0; i < 5; ++i) add("Movie", "Matilda", true);
  for (int i = 0; i < 3; ++i) add("Movie", "Goodfellas", true);
  for (int i = 0; i < 7; ++i) add("Movie", "Wicked", false);
  for (int i = 0; i < 2; ++i) add("Person", "John Smith", false);
  return coll;
}

TEST(CountByFieldTest, GroupsAndSorts) {
  Collection coll = MakeEntities();
  auto rows = CountByField(coll.GetView(), "name");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].key, "Wicked");
  EXPECT_EQ(rows[0].count, 7);
  EXPECT_EQ(rows[1].key, "Matilda");
}

TEST(CountByFieldTest, FilterApplied) {
  Collection coll = MakeEntities();
  auto rows = CountByField(
      coll.GetView(), "name",
      Predicate::Eq("award_winning", DocValue::Str("true")));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "Matilda");
  EXPECT_EQ(rows[1].key, "Goodfellas");
}

TEST(CountByFieldTest, MissingPathSkipped) {
  Collection coll = MakeEntities();
  auto rows = CountByField(coll.GetView(), "no_such_field");
  EXPECT_TRUE(rows.empty());
}

TEST(TopKTest, LimitsResults) {
  Collection coll = MakeEntities();
  auto rows = TopKByCount(coll.GetView(), "name", 2);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "Wicked");
}

TEST(CountByFieldTest, TieBreakByKey) {
  Collection coll("dt.x");
  coll.Insert(DocBuilder().Set("k", "b").Build());
  coll.Insert(DocBuilder().Set("k", "a").Build());
  auto rows = CountByField(coll.GetView(), "k");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "a");
}

Table Shows() {
  Schema s({{"show", ValueType::kString},
            {"price", ValueType::kDouble},
            {"theater", ValueType::kString}});
  Table t("shows", s);
  (void)t.Append({Value::Str("Matilda"), Value::Double(27), Value::Str("Shubert")});
  (void)t.Append({Value::Str("Wicked"), Value::Double(89), Value::Str("Gershwin")});
  (void)t.Append({Value::Str("Annie"), Value::Double(35), Value::Str("Palace")});
  return t;
}

TEST(ProjectTest, KeepsRequestedColumns) {
  auto p = Project(Shows(), {"price", "show"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->schema().num_attributes(), 2);
  EXPECT_EQ(p->schema().attribute(0).name, "price");
  EXPECT_EQ(p->at(0, "show").string_value(), "Matilda");
}

TEST(ProjectTest, UnknownColumnFails) {
  EXPECT_TRUE(Project(Shows(), {"nope"}).status().IsNotFound());
}

TEST(OrderByTest, SortsAscendingAndDescending) {
  auto asc = OrderBy(Shows(), "price", false);
  ASSERT_TRUE(asc.ok());
  EXPECT_EQ(asc->at(0, "show").string_value(), "Matilda");
  EXPECT_EQ(asc->at(2, "show").string_value(), "Wicked");
  auto desc = OrderBy(Shows(), "price", true);
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->at(0, "show").string_value(), "Wicked");
}

TEST(OrderByTest, UnknownColumnFails) {
  EXPECT_TRUE(OrderBy(Shows(), "nope", false).status().IsNotFound());
}

TEST(LimitTest, TruncatesRows) {
  auto l = Limit(Shows(), 2);
  EXPECT_EQ(l.num_rows(), 2);
  EXPECT_EQ(Limit(Shows(), 0).num_rows(), 0);
  EXPECT_EQ(Limit(Shows(), 99).num_rows(), 3);
}

Table Theaters() {
  Schema s({{"name", ValueType::kString}, {"seats", ValueType::kInt}});
  Table t("theaters", s);
  (void)t.Append({Value::Str("Shubert"), Value::Int(1400)});
  (void)t.Append({Value::Str("Gershwin"), Value::Int(1900)});
  return t;
}

TEST(HashJoinTest, MatchesOnKey) {
  auto j = HashJoin(Shows(), "theater", Theaters(), "name");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 2);  // Annie's Palace has no theater row
  EXPECT_EQ(j->schema().num_attributes(), 5);
  // Clash-free names pass through; the right "name" column is present.
  EXPECT_TRUE(j->schema().Contains("name"));
  EXPECT_EQ(j->at(0, "seats").int_value(), 1400);
}

TEST(HashJoinTest, NameClashPrefixed) {
  Schema s({{"show", ValueType::kString}});
  Table r("r", s);
  (void)r.Append({Value::Str("Matilda")});
  auto j = HashJoin(Shows(), "show", r, "show");
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j->schema().Contains("right_show"));
  EXPECT_EQ(j->num_rows(), 1);
}

TEST(HashJoinTest, NullKeysNeverJoin) {
  Schema s({{"k", ValueType::kString}});
  Table a("a", s), b("b", s);
  (void)a.Append({Value::Null()});
  (void)b.Append({Value::Null()});
  auto j = HashJoin(a, "k", b, "k");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 0);
}

TEST(HashJoinTest, UnknownAttrFails) {
  EXPECT_TRUE(
      HashJoin(Shows(), "nope", Theaters(), "name").status().IsNotFound());
  EXPECT_TRUE(
      HashJoin(Shows(), "show", Theaters(), "nope").status().IsNotFound());
}

}  // namespace
}  // namespace dt::query
