// EXPECT_REPORTS_EQUAL — attack::CampaignReport equality for the
// differential tests (fork ≡ fresh, batched ≡ per-call harvest, debugger ≡
// runner): CampaignReport::same_outcome, which compares every field but
// template_wall_seconds (host wall clock), plus one EXPECT_EQ per field so
// a mismatch names the field.
#pragma once

#include <gtest/gtest.h>

#define EXPECT_REPORTS_EQUAL(a, b, label)                                   \
  do {                                                                      \
    EXPECT_TRUE((a).same_outcome(b)) << (label);                            \
    EXPECT_EQ((a).cipher, (b).cipher) << (label);                           \
    EXPECT_EQ((a).template_found, (b).template_found) << (label);           \
    EXPECT_EQ((a).rows_scanned, (b).rows_scanned) << (label);               \
    EXPECT_EQ((a).flips_found, (b).flips_found) << (label);                 \
    EXPECT_EQ((a).chosen, (b).chosen) << (label);                           \
    EXPECT_EQ((a).table_index, (b).table_index) << (label);                 \
    EXPECT_EQ((a).fault_mask, (b).fault_mask) << (label);                   \
    EXPECT_EQ((a).steered, (b).steered) << (label);                         \
    EXPECT_EQ((a).planted_pfn, (b).planted_pfn) << (label);                 \
    EXPECT_EQ((a).victim_table_pfn, (b).victim_table_pfn) << (label);       \
    EXPECT_EQ((a).fault_injected, (b).fault_injected) << (label);           \
    EXPECT_EQ((a).fault_as_predicted, (b).fault_as_predicted) << (label);   \
    EXPECT_EQ((a).ciphertexts_used, (b).ciphertexts_used) << (label);       \
    EXPECT_EQ((a).residual_search, (b).residual_search) << (label);         \
    EXPECT_EQ((a).key_recovered, (b).key_recovered) << (label);             \
    EXPECT_EQ((a).recovered_key, (b).recovered_key) << (label);             \
    EXPECT_EQ((a).victim_key, (b).victim_key) << (label);                   \
    EXPECT_EQ((a).success, (b).success) << (label);                         \
    EXPECT_EQ((a).total_time, (b).total_time) << (label);                   \
    EXPECT_EQ((a).template_time, (b).template_time) << (label);             \
  } while (0)
