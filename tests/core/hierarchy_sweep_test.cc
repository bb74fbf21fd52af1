// The machine-checked (n,m)-PAC hierarchy sweep (core/hierarchy_sweep.h):
// row verdicts against the catalog, artifact schema round-trips, the
// byte-identity of the rows document across engines and thread counts, and
// the committed HIERARCHY.json against a fresh sweep.
#include "core/hierarchy_sweep.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "obs/metrics.h"
#include "obs/report.h"

namespace lbsa::core {
namespace {

TEST(HierarchySweep, SmallestCellVerifies) {
  auto row_or = run_hierarchy_row(2, 1);
  ASSERT_TRUE(row_or.is_ok()) << row_or.status().to_string();
  const SweepRow& row = row_or.value();
  EXPECT_TRUE(row.ok());
  EXPECT_EQ(row.object, "(2,1)-PAC");
  EXPECT_EQ(row.declared_level, 1);
  EXPECT_TRUE(row.consensus_ok_all_p);
  EXPECT_EQ(row.consensus.processes, 1);
  EXPECT_EQ(row.dac.processes, 2);
  EXPECT_TRUE(row.matches_catalog);
  EXPECT_GE(row.consensus.nodes, 1u);
  EXPECT_GE(row.dac.nodes, 1u);
  EXPECT_GE(row.dac.nodes_full, row.dac.nodes);
}

TEST(HierarchySweep, FullCapacityCellVerifies) {
  // m = n: the consensus port carries the whole object's process budget.
  auto row_or = run_hierarchy_row(3, 3);
  ASSERT_TRUE(row_or.is_ok()) << row_or.status().to_string();
  EXPECT_TRUE(row_or.value().ok());
  EXPECT_EQ(row_or.value().consensus.processes, 3);
}

TEST(HierarchySweep, CrossCheckReductionsAgree) {
  // Verdicts must survive re-checking under the other reduction modes; a
  // disagreement is an error, not a row.
  for (auto reduction :
       {modelcheck::Reduction::kNone, modelcheck::Reduction::kBoth}) {
    SweepOptions options;
    options.cross_check = reduction;
    auto row_or = run_hierarchy_row(3, 2, options);
    ASSERT_TRUE(row_or.is_ok()) << row_or.status().to_string();
    EXPECT_TRUE(row_or.value().ok());
  }
}

TEST(HierarchySweep, DacChecksWalkTheQuotientGraph) {
#if defined(LBSA_OBS_DISABLED)
  GTEST_SKIP() << "counters are compiled out under LBSA_OBS_DISABLED";
#endif
  // Each row's DAC check runs on a complete symmetry quotient, so its solo
  // runs are walked along the graph's edges, never re-simulated.
  obs::Registry::global().reset_values();
  obs::set_metrics_enabled(true);
  auto row_or = run_hierarchy_row(5, 5);
  obs::set_metrics_enabled(false);
  ASSERT_TRUE(row_or.is_ok()) << row_or.status().to_string();
  EXPECT_TRUE(row_or.value().ok());
  EXPECT_LT(row_or.value().dac.nodes, row_or.value().dac.nodes_full);
  std::uint64_t walked = 0;
  std::uint64_t simulated = 0;
  for (const auto& row : obs::Registry::global().snapshot().counters) {
    if (row.name == "task_check.solo.walked") walked = row.value;
    if (row.name == "task_check.solo.simulated") simulated = row.value;
  }
  EXPECT_GT(walked, 0u);
  EXPECT_EQ(simulated, 0u);
}

TEST(HierarchySweep, SweepCoversTheGridInOrder) {
  SweepOptions options;
  options.n_max = 3;
  auto result_or = run_hierarchy_sweep(options);
  ASSERT_TRUE(result_or.is_ok()) << result_or.status().to_string();
  const SweepResult& result = result_or.value();
  ASSERT_EQ(result.rows.size(), 5u);  // (2,1) (2,2) (3,1) (3,2) (3,3)
  EXPECT_TRUE(result.all_ok());
  int index = 0;
  for (int n = 2; n <= 3; ++n) {
    for (int m = 1; m <= n; ++m, ++index) {
      EXPECT_EQ(result.rows[static_cast<size_t>(index)].n, n);
      EXPECT_EQ(result.rows[static_cast<size_t>(index)].m, m);
    }
  }
}

TEST(HierarchySweep, RowsJsonByteIdenticalAcrossEnginesAndThreads) {
  SweepOptions serial;
  serial.n_max = 3;
  serial.engine = modelcheck::ExploreEngine::kSerial;
  serial.threads = 1;
  auto base = run_hierarchy_sweep(serial);
  ASSERT_TRUE(base.is_ok());
  const std::string base_json = hierarchy_rows_json(base.value());

  SweepOptions parallel = serial;
  parallel.engine = modelcheck::ExploreEngine::kParallel;
  parallel.threads = 2;
  auto par = run_hierarchy_sweep(parallel);
  ASSERT_TRUE(par.is_ok());
  EXPECT_EQ(hierarchy_rows_json(par.value()), base_json);

  // A cross-check pass must not perturb the recorded rows either.
  SweepOptions checked = serial;
  checked.cross_check = modelcheck::Reduction::kNone;
  auto xc = run_hierarchy_sweep(checked);
  ASSERT_TRUE(xc.is_ok());
  EXPECT_EQ(hierarchy_rows_json(xc.value()), base_json);
}

// LBSA_HIERARCHY_ARTIFACT is injected by tests/core/CMakeLists.txt and
// points at the committed HIERARCHY.json in the source tree.
TEST(HierarchySweep, RowsMatchCommittedArtifact) {
  std::ifstream in(LBSA_HIERARCHY_ARTIFACT, std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << LBSA_HIERARCHY_ARTIFACT;
  const std::string committed((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  // The provenance member, last in the artifact, describes the host and
  // the invocation; everything before it is the rows document.
  const std::size_t at = committed.rfind(",\"provenance\":");
  ASSERT_NE(at, std::string::npos) << "HIERARCHY.json has no provenance";
  const std::string committed_rows = committed.substr(0, at) + "}";

  SweepOptions options;
  options.n_max = 6;
  options.threads = 4;
  auto result_or = run_hierarchy_sweep(options);
  ASSERT_TRUE(result_or.is_ok()) << result_or.status().to_string();
  EXPECT_EQ(hierarchy_rows_json(result_or.value()), committed_rows)
      << "HIERARCHY.json is stale: regenerate it with "
         "tools/hierarchy_report.sh";
}

TEST(HierarchySweep, ArtifactValidatesAndTamperingIsRejected) {
  SweepOptions options;
  options.n_max = 3;
  auto result_or = run_hierarchy_sweep(options);
  ASSERT_TRUE(result_or.is_ok());
  SweepResult result = std::move(result_or).value();

  SweepProvenance provenance;
  provenance.engine = "serial";
  provenance.threads = 1;
  provenance.threads_available = 1;
  const std::string artifact = hierarchy_artifact_json(result, provenance);
  EXPECT_TRUE(obs::validate_hierarchy_artifact_json(artifact).is_ok())
      << obs::validate_hierarchy_artifact_json(artifact).to_string();

  // A refuted row must not validate: the artifact asserts the theorem.
  SweepResult tampered = result;
  tampered.rows[1].matches_catalog = false;
  EXPECT_FALSE(
      obs::validate_hierarchy_artifact_json(
          hierarchy_artifact_json(tampered, provenance))
          .is_ok());

  // An incomplete grid must not validate.
  SweepResult truncated = result;
  truncated.rows.pop_back();
  EXPECT_FALSE(
      obs::validate_hierarchy_artifact_json(
          hierarchy_artifact_json(truncated, provenance))
          .is_ok());

  // Provenance is required — the bare rows document is not an artifact.
  EXPECT_FALSE(
      obs::validate_hierarchy_artifact_json(hierarchy_rows_json(result))
          .is_ok());
}

TEST(HierarchySweep, MarkdownTableShowsVerifiedLevels) {
  SweepOptions options;
  options.n_max = 3;
  auto result_or = run_hierarchy_sweep(options);
  ASSERT_TRUE(result_or.is_ok());
  const std::string table = hierarchy_table_markdown(result_or.value());
  EXPECT_NE(table.find("| n \\ m |"), std::string::npos);
  EXPECT_NE(table.find("| **2** | 1 ✓ | 2 ✓ |"), std::string::npos);
  EXPECT_NE(table.find("| **3** | 1 ✓ | 2 ✓ | 3 ✓ |"), std::string::npos);
  // No cell above the diagonal (m > n).
  EXPECT_EQ(table.find("✗"), std::string::npos);
}

}  // namespace
}  // namespace lbsa::core
