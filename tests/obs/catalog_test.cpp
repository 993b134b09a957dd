// Metric catalog invariants: the table stays sorted (catalog_find binary-
// searches it), lookups are exact, and the fleet-fold rule accepts
// fleet.<endpoint>.<documented-suffix> — including endpoints that contain
// dots — while rejecting undocumented suffixes.
#include "obs/catalog.hpp"

#include <gtest/gtest.h>

#include <string>

namespace amjs::obs {
namespace {

TEST(Catalog, IsSortedByNameWithNoDuplicates) {
  const auto catalog = metric_catalog();
  ASSERT_FALSE(catalog.empty());
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(catalog[i - 1].name, catalog[i].name)
        << "catalog out of order at '" << catalog[i].name << "'";
  }
  for (const CatalogEntry& entry : catalog) {
    EXPECT_FALSE(entry.help.empty()) << entry.name << " has no help text";
  }
}

TEST(Catalog, FindIsExact) {
  const CatalogEntry* entry = catalog_find("svc.plugin.campaign");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, MetricKind::kCounter);
  EXPECT_EQ(catalog_find("svc.plugin"), nullptr);
  EXPECT_EQ(catalog_find("svc.plugin.campaign2"), nullptr);
  EXPECT_EQ(catalog_find(""), nullptr);
}

TEST(Catalog, ContainsAcceptsFleetFoldsOfDocumentedNames) {
  EXPECT_TRUE(catalog_contains("svc.requests"));
  EXPECT_TRUE(catalog_contains("fleet.tcp:127.0.0.1:9000.svc.requests"));
  // Endpoint segments may contain dots; the rule matches on the suffix.
  EXPECT_TRUE(catalog_contains("fleet.unix:/tmp/w1.sock.svc.plugin.campaign"));
  // Driver-minted per-endpoint meta gauge with no global entry of its own.
  EXPECT_TRUE(catalog_contains("fleet.tcp:127.0.0.1:9000.heartbeat_age_ms"));
}

TEST(Catalog, ContainsRejectsUndocumentedNames) {
  EXPECT_FALSE(catalog_contains("made.up.counter"));
  EXPECT_FALSE(catalog_contains("fleet.tcp:127.0.0.1:9000.made.up"));
  EXPECT_FALSE(catalog_contains("heartbeat_age_ms"));  // fleet-only gauge
  EXPECT_FALSE(catalog_contains("fleetX.tcp:1.svc.requests"));
}

TEST(Catalog, MetricKindNamesRenderForTheDesignTable) {
  EXPECT_STREQ(to_string(MetricKind::kCounter), "counter");
  EXPECT_STREQ(to_string(MetricKind::kGauge), "gauge");
  EXPECT_STREQ(to_string(MetricKind::kTimer), "timer");
}

}  // namespace
}  // namespace amjs::obs
