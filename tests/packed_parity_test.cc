// Parity harness for the packed-code hot loops.
//
// The contract under test: the simd match-counting primitives return the
// same integer counts as plain loops over the unpacked codes, and every
// learner family therefore fits and predicts bit-identically at any
// thread count. Plus the PackedCodeMatrix layout/round-trip/bounds edge
// cases and the pinned 1-NN early-exit + tie-break semantics.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hamlet/common/rng.h"
#include "hamlet/data/code_matrix.h"
#include "hamlet/data/dataset.h"
#include "hamlet/data/packed_code_matrix.h"
#include "hamlet/data/view.h"
#include "hamlet/ml/knn/one_nn.h"
#include "hamlet/ml/svm/kernel.h"
#include "hamlet/simd/simd.h"
#include "parity_util.h"

namespace hamlet {
namespace test {
namespace {

/// The definitional mismatch count the packed path must reproduce.
size_t ReferenceMismatch(const uint32_t* a, const uint32_t* b, size_t d) {
  size_t mismatches = 0;
  for (size_t j = 0; j < d; ++j) mismatches += a[j] != b[j];
  return mismatches;
}

/// Random row-major codes for `rows` rows over per-feature domains.
std::vector<uint32_t> RandomCodes(Rng& rng, size_t rows,
                                  const std::vector<uint32_t>& domains) {
  std::vector<uint32_t> codes;
  codes.reserve(rows * domains.size());
  for (size_t i = 0; i < rows; ++i) {
    for (const uint32_t domain : domains) {
      codes.push_back(static_cast<uint32_t>(rng.UniformInt(domain)));
    }
  }
  return codes;
}

/// Dataset with explicit rows, for handcrafted 1-NN fixtures.
Dataset MakeDatasetFromRows(const std::vector<uint32_t>& domains,
                            const std::vector<std::vector<uint32_t>>& rows,
                            const std::vector<uint8_t>& labels) {
  std::vector<FeatureSpec> specs;
  specs.reserve(domains.size());
  for (size_t j = 0; j < domains.size(); ++j) {
    FeatureSpec spec;
    spec.name = "f" + std::to_string(j);
    spec.domain_size = domains[j];
    spec.role = FeatureRole::kHome;
    spec.dim_index = -1;
    specs.push_back(std::move(spec));
  }
  Dataset data(std::move(specs));
  for (size_t i = 0; i < rows.size(); ++i) {
    data.AppendRowUnchecked(rows[i], labels[i]);
  }
  return data;
}

// ---------------------------------------------------------------------
// PackedLayout shape math.

TEST(PackedLayoutTest, FieldGeometryAcrossDomainWidths) {
  // domain 2 -> 1 value bit + guard = 2-bit fields, 32 per word.
  const simd::PackedLayout two = simd::PackedLayout::ForMaxCode(1, 64);
  EXPECT_EQ(two.field_bits, 2u);
  EXPECT_EQ(two.fields_per_word, 32u);
  EXPECT_EQ(two.words_per_row, 2u);

  // domain 9 (max code 8) -> 4 value bits + guard = 5-bit fields.
  const simd::PackedLayout nine = simd::PackedLayout::ForMaxCode(8, 13);
  EXPECT_EQ(nine.field_bits, 5u);
  EXPECT_EQ(nine.fields_per_word, 12u);
  EXPECT_EQ(nine.words_per_row, 2u);

  // Max 32-bit code -> 32 value bits + guard = 33-bit fields, one per
  // word.
  const simd::PackedLayout huge =
      simd::PackedLayout::ForMaxCode(0xFFFFFFFEu, 3);
  EXPECT_EQ(huge.field_bits, 33u);
  EXPECT_EQ(huge.fields_per_word, 1u);
  EXPECT_EQ(huge.words_per_row, 3u);

  // Zero features pack to zero words.
  const simd::PackedLayout empty = simd::PackedLayout::ForMaxCode(5, 0);
  EXPECT_EQ(empty.words_per_row, 0u);

  // Every guard bit sits above its field's value bits.
  for (const auto& layout : {two, nine, huge}) {
    EXPECT_EQ(layout.guard_mask & layout.add_mask, 0u);
    EXPECT_EQ(static_cast<size_t>(64 / layout.field_bits),
              layout.fields_per_word);
  }
}

TEST(PackedLayoutTest, ForDomainsUsesLargestDomain) {
  const std::vector<uint32_t> domains = {2, 17, 3, 9};
  const simd::PackedLayout layout =
      simd::PackedLayout::ForDomains(domains.data(), domains.size());
  // Max code 16 -> 5 value bits + guard.
  EXPECT_EQ(layout.field_bits, 6u);
  EXPECT_EQ(layout.num_features, 4u);
}

// ---------------------------------------------------------------------
// PackedCodeMatrix round trip and edges.

TEST(PackedCodeMatrixTest, RoundTripMatchesCodeMatrix) {
  Rng rng(2024);
  const std::vector<uint32_t> domains = {4, 2, 33, 7, 2, 1000, 3};
  const Dataset data = MakeParityDataset(57, domains, 11);
  const CodeMatrix m((DataView(&data)));
  const PackedCodeMatrix packed(m);
  ASSERT_EQ(packed.num_rows(), m.num_rows());
  for (size_t i = 0; i < m.num_rows(); ++i) {
    for (size_t j = 0; j < m.num_features(); ++j) {
      EXPECT_EQ(packed.code_at(i, j), m.at(i, j)) << i << "," << j;
    }
  }
}

TEST(PackedCodeMatrixTest, ZeroRowAndZeroFeatureBuilds) {
  const simd::PackedLayout layout = simd::PackedLayout::ForMaxCode(3, 5);
  const PackedCodeMatrix no_rows(layout, nullptr, 0);
  EXPECT_EQ(no_rows.num_rows(), 0u);
  EXPECT_EQ(no_rows.num_words(), 0u);

  // Zero features: rows exist but span zero words, and comparisons see
  // zero mismatches.
  const simd::PackedLayout no_features = simd::PackedLayout::ForMaxCode(0, 0);
  const PackedCodeMatrix empty_rows(no_features, nullptr, 2);
  EXPECT_EQ(empty_rows.num_rows(), 2u);
  EXPECT_EQ(empty_rows.num_words(), 0u);
  EXPECT_EQ(simd::PackedMismatchCount(no_features, empty_rows.row(0),
                                      empty_rows.row(1)),
            0u);
}

#if !defined(NDEBUG) || defined(HAMLET_CHECK_BOUNDS)
TEST(PackedCodeMatrixDeathTest, OutOfBoundsAborts) {
  // Threadsafe style re-executes the binary for the death assertion, so
  // any pool threads other tests spawned don't confuse the forked child.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<uint32_t> domains = {4, 4};
  const Dataset data = MakeParityDataset(3, domains, 5);
  const CodeMatrix m((DataView(&data)));
  const PackedCodeMatrix packed(m);
  EXPECT_DEATH((void)packed.row(3), "out of bounds");
  EXPECT_DEATH((void)packed.code_at(0, 2), "out of bounds");
}
#else
TEST(PackedCodeMatrixDeathTest, OutOfBoundsAborts) {
  GTEST_SKIP() << "bounds checks compiled out (NDEBUG without "
                  "HAMLET_CHECK_BOUNDS)";
}
#endif

// ---------------------------------------------------------------------
// Counting primitives against plain loops over the unpacked codes.

TEST(PackedPrimitiveParity, MismatchCountsAgreeAcrossShapes) {
  Rng rng(77);
  // Shapes stress the layout edges: no features, one feature, feature
  // counts that are not a multiple of the fields per word, a single row,
  // max-domain codes (one field per word), and long multi-word rows
  // (10 and 52 words).
  const std::vector<std::pair<size_t, std::vector<uint32_t>>> shapes = {
      {3, {}},
      {6, std::vector<uint32_t>(1, 2)},
      {9, {2, 3, 5, 2, 9, 4, 2}},
      {1, {17, 3, 3, 8, 2}},
      {5, {4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}},
      {4, {0xFFFFFFFFu, 0xFFFFFFFFu, 7}},
      {3, std::vector<uint32_t>(300, 2)},
      {3, std::vector<uint32_t>(517, 23)},
  };
  for (const auto& [rows, domains] : shapes) {
    const size_t d = domains.size();
    std::vector<uint32_t> codes = RandomCodes(rng, rows, domains);
    const simd::PackedLayout layout =
        simd::PackedLayout::ForDomains(domains.data(), d);
    const PackedCodeMatrix packed(layout, codes.data(), rows);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < rows; ++j) {
        const size_t ref =
            ReferenceMismatch(codes.data() + i * d, codes.data() + j * d, d);
        EXPECT_EQ(simd::PackedMismatchCount(layout, packed.row(i),
                                            packed.row(j)),
                  ref)
            << "d=" << d;
        EXPECT_EQ(
            simd::PackedMatchCount(layout, packed.row(i), packed.row(j)),
            d - ref);
      }
    }
  }
}

TEST(PackedPrimitiveParity, AllEqualRowsHaveZeroMismatches) {
  const std::vector<uint32_t> domains = {5, 9, 2, 1000};
  std::vector<uint32_t> codes;
  for (size_t i = 0; i < 4; ++i) {
    codes.insert(codes.end(), {4, 8, 1, 999});
  }
  const simd::PackedLayout layout =
      simd::PackedLayout::ForDomains(domains.data(), domains.size());
  const PackedCodeMatrix packed(layout, codes.data(), 4);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(simd::PackedMismatchCount(layout, packed.row(0), packed.row(i)),
              0u);
  }
}

TEST(PackedPrimitiveParity, BoundedCountHonoursItsContract) {
  Rng rng(31);
  const std::vector<uint32_t> domains(41, 6);  // 41 features, 3-bit fields
  const size_t d = domains.size();
  const std::vector<uint32_t> codes = RandomCodes(rng, 8, domains);
  const simd::PackedLayout layout =
      simd::PackedLayout::ForDomains(domains.data(), d);
  const PackedCodeMatrix packed(layout, codes.data(), 8);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      const size_t ref = ReferenceMismatch(codes.data() + i * d, codes.data() + j * d, d);
      for (const size_t limit : {size_t{0}, size_t{1}, ref, ref + 1, d + 1}) {
        const size_t bounded = simd::PackedMismatchCountBounded(
            layout, packed.row(i), packed.row(j), limit);
        // Partial sums never exceed the true count; a result below the
        // limit must be exact, and an abandoned scan must prove the true
        // count reached the limit too.
        EXPECT_LE(bounded, ref);
        if (bounded < limit) {
          EXPECT_EQ(bounded, ref);
        } else {
          EXPECT_GE(ref, limit);
        }
      }
    }
  }
}

TEST(PackedPrimitiveParity, KernelValuesBitIdentical) {
  Rng rng(404);
  const std::vector<uint32_t> domains = {4, 23, 2, 7, 9, 2, 61, 3};
  const size_t d = domains.size();
  const size_t rows = 12;
  const std::vector<uint32_t> codes = RandomCodes(rng, rows, domains);
  const simd::PackedLayout layout =
      simd::PackedLayout::ForDomains(domains.data(), d);
  const PackedCodeMatrix packed(layout, codes.data(), rows);

  std::vector<ml::KernelConfig> configs(3);
  configs[0].type = ml::KernelType::kLinear;
  configs[1].type = ml::KernelType::kPoly;
  configs[1].gamma = 0.3;
  configs[1].degree = 2;
  configs[2].type = ml::KernelType::kRbf;
  configs[2].gamma = 0.07;

  for (const ml::KernelConfig& config : configs) {
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < rows; ++j) {
        const double scalar_value =
            ml::KernelEval(config, codes.data() + i * d, codes.data() + j * d, d);
        // EXPECT_EQ, not NEAR: equal match counts through the shared
        // KernelFromMatches must give the same bits.
        EXPECT_EQ(ml::PackedKernelEval(config, layout, packed.row(i),
                                       packed.row(j)),
                  scalar_value)
            << ml::KernelTypeName(config.type);
      }
    }
  }
}

TEST(PackedPrimitiveParity, CountCodeLabelPairsMatchesPlainLoop) {
  // n covers the single-histogram fallback (n < 8), the first two-lane
  // input (8), and ragged tails after the lane pairs (9, 33).
  const std::vector<uint32_t> domains = {3, 1, 7, 2};
  const size_t d = domains.size();
  std::vector<size_t> offsets(d + 1, 0);
  for (size_t j = 0; j < d; ++j) offsets[j + 1] = offsets[j] + 2 * domains[j];
  Rng rng(515);
  for (const size_t n : {0u, 1u, 7u, 8u, 9u, 33u}) {
    const std::vector<uint32_t> codes = RandomCodes(rng, n, domains);
    std::vector<uint8_t> labels(n);
    for (uint8_t& label : labels) {
      label = static_cast<uint8_t>(rng.Bernoulli(0.5));
    }
    std::vector<uint32_t> expected(offsets[d], 0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < d; ++j) {
        ++expected[offsets[j] + codes[i * d + j] * 2 + labels[i]];
      }
    }
    // Counts accumulate onto the caller's buffer, so start from a
    // non-zero one.
    std::vector<uint32_t> counts(offsets[d], 5);
    for (uint32_t& count : expected) count += 5;
    simd::CountCodeLabelPairs(codes.data(), labels.data(), n, d,
                              offsets.data(), counts.data());
    EXPECT_EQ(counts, expected) << "n=" << n;
  }
}

TEST(PackedPrimitiveParity, SplitStatsScanMatchesPlainLoop) {
  const std::vector<uint32_t> domains = {5, 11, 2};
  const size_t d = domains.size();
  const size_t num_rows = 40;
  Rng rng(616);
  const std::vector<uint32_t> codes = RandomCodes(rng, num_rows, domains);
  std::vector<uint8_t> labels(num_rows);
  for (uint8_t& label : labels) {
    label = static_cast<uint8_t>(rng.Bernoulli(0.5));
  }
  std::vector<uint32_t> row_ids(num_rows);
  for (size_t i = 0; i < num_rows; ++i) row_ids[i] = static_cast<uint32_t>(i);
  rng.Shuffle(row_ids);
  // Odd and even n scan a prefix of the shuffled ids, so the unrolled
  // pairs gather non-adjacent rows and odd n leaves a one-row tail.
  for (const size_t n : {0u, 1u, 2u, 17u, 24u, 39u, 40u}) {
    for (size_t feature = 0; feature < d; ++feature) {
      std::vector<uint32_t> expected_count(domains[feature], 0);
      std::vector<uint32_t> expected_pos(domains[feature], 0);
      std::vector<uint32_t> expected_touched;
      for (size_t i = 0; i < n; ++i) {
        const uint32_t c = codes[row_ids[i] * d + feature];
        if (expected_count[c] == 0) expected_touched.push_back(c);
        ++expected_count[c];
        expected_pos[c] += labels[row_ids[i]];
      }
      std::vector<uint32_t> count(domains[feature], 0);
      std::vector<uint32_t> pos_count(domains[feature], 0);
      std::vector<uint32_t> touched;
      simd::SplitStatsScan(codes.data(), d, labels.data(), row_ids.data(), n,
                           feature, count.data(), pos_count.data(), touched);
      EXPECT_EQ(count, expected_count) << "n=" << n << " feature=" << feature;
      EXPECT_EQ(pos_count, expected_pos) << "n=" << n << " feature=" << feature;
      EXPECT_EQ(touched, expected_touched)
          << "n=" << n << " feature=" << feature;
    }
  }
}

// ---------------------------------------------------------------------
// Pinned 1-NN semantics under packing.

TEST(PackedOneNnSemantics, TieBreaksToLowestIndex) {
  // Rows 1 and 3 are identical; both are nearest to the query. The scan
  // must return index 1.
  const std::vector<uint32_t> domains = {4, 4, 4};
  const Dataset data = MakeDatasetFromRows(
      domains,
      {{0, 0, 0}, {2, 1, 3}, {3, 3, 3}, {2, 1, 3}, {2, 1, 0}},
      {0, 1, 0, 1, 0});
  ml::OneNearestNeighbor model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  const uint32_t query[] = {2, 1, 3};
  EXPECT_EQ(model.NearestIndexOfCodes(query), 1u);
  // A query matching row 0 exactly must short-circuit to index 0 even
  // though later rows tie at distance 0.
  const uint32_t zero_query[] = {0, 0, 0};
  EXPECT_EQ(model.NearestIndexOfCodes(zero_query), 0u);
}

TEST(PackedOneNnSemantics, EarlyExitMatchesBruteForceScan) {
  // The packed scan abandons rows at word granularity once the running
  // distance reaches the incumbent best; the winner (and its tie-break)
  // must still match an exhaustive argmin.
  Rng rng(909);
  const std::vector<uint32_t> domains = {6, 6, 3, 9, 2, 17, 4, 6, 2, 5,
                                         3, 7, 2};
  const size_t d = domains.size();
  const size_t n = 64;
  std::vector<std::vector<uint32_t>> rows(n);
  std::vector<uint8_t> labels(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].resize(d);
    for (size_t j = 0; j < d; ++j) {
      rows[i][j] = static_cast<uint32_t>(rng.UniformInt(domains[j]));
    }
    labels[i] = static_cast<uint8_t>(rng.Bernoulli(0.5));
  }
  // Clone a row to guarantee at least one duplicate-distance tie.
  rows[40] = rows[7];
  const Dataset data = MakeDatasetFromRows(domains, rows, labels);

  ml::OneNearestNeighbor model;
  ASSERT_TRUE(model.Fit(DataView(&data)).ok());
  Rng query_rng(4242);
  for (size_t q = 0; q < 48; ++q) {
    std::vector<uint32_t> query(d);
    for (size_t j = 0; j < d; ++j) {
      query[j] = static_cast<uint32_t>(query_rng.UniformInt(domains[j]));
    }
    // Some queries coincide with training rows (distance 0 paths).
    if (q % 8 == 0) query = rows[q % n];
    size_t best = 0;
    size_t best_dist = d + 1;
    for (size_t r = 0; r < n; ++r) {
      const size_t dist = ReferenceMismatch(rows[r].data(), query.data(), d);
      if (dist < best_dist) {
        best_dist = dist;
        best = r;
      }
    }
    EXPECT_EQ(model.NearestIndexOfCodes(query.data()), best)
        << "query=" << q;
  }
}

// ---------------------------------------------------------------------
// Packed stats plumbing.

TEST(PackedStatsTest, CountersAccumulateAndReset) {
  const std::vector<uint32_t> domains = {4, 9, 3};
  const Dataset data = MakeParityDataset(40, domains, 21);
  const ParityViews views = MakeParityViews(data, 3);

  simd::ResetGlobalPackedStats();
  ml::OneNearestNeighbor model;
  ASSERT_TRUE(model.Fit(views.train).ok());
  (void)model.PredictAll(views.test);
  const simd::PackedStats stats = simd::GlobalPackedStats();
  EXPECT_GE(stats.builds, 1u);
  EXPECT_GE(stats.rows, views.train.num_rows());
  EXPECT_GT(stats.build_words, 0u);
  // Every test query scanned the packed training rows.
  EXPECT_GE(stats.evals,
            views.test.num_rows() * views.train.num_rows());
  EXPECT_GT(stats.eval_words, 0u);

  simd::ResetGlobalPackedStats();
  const simd::PackedStats zeroed = simd::GlobalPackedStats();
  EXPECT_EQ(zeroed.builds, 0u);
  EXPECT_EQ(zeroed.rows, 0u);
  EXPECT_EQ(zeroed.build_words, 0u);
  EXPECT_EQ(zeroed.evals, 0u);
  EXPECT_EQ(zeroed.eval_words, 0u);
}

// ---------------------------------------------------------------------
// Every learner family at multiple thread counts.

TEST(PackedBackendParity, LearnersBitIdenticalAcrossBackendsAndThreads) {
  const std::vector<uint32_t> domains = {4, 9, 3, 17, 2, 33, 5};
  const Dataset data = MakeParityDataset(180, domains, 0xBADC0DE);
  const ParityViews views = MakeParityViews(data, 99);

  for (const ParityLearner& learner : ParityLearners()) {
    std::vector<uint8_t> baseline;
    bool have_baseline = false;
    for (const char* threads : {"1", "4"}) {
      ScopedThreads threads_env(threads);
      auto model = learner.make();
      ASSERT_TRUE(model->Fit(views.train).ok()) << learner.name;
      const std::vector<uint8_t> predictions =
          ExpectPredictParity(*model, views.test);
      if (!have_baseline) {
        baseline = predictions;
        have_baseline = true;
      } else {
        EXPECT_EQ(predictions, baseline)
            << learner.name << " diverges at threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace test
}  // namespace hamlet
