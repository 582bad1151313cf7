// Checks on a run's per-node ledgers: they add up to what the run reports,
// and they match another run's.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "sim/outcome.hpp"

namespace ftbb {

/// `nodes` ledgers whose sum is `work` on every item but the two redundancy
/// fields, whose traffic is the network's, and whose expansions are the
/// expansion account's. The run must have drained: bytes count as delivered
/// when sent, messages when they arrive.
inline void expect_ledgers_add_up(const sim::RunOutcome& res, std::size_t nodes) {
  using core::WorkItem;
  ASSERT_EQ(res.worker_ledgers.size(), nodes);
  core::WorkLedger sum;
  for (const core::WorkLedger& ledger : res.worker_ledgers) sum.add(ledger);
  EXPECT_EQ(sum[WorkItem::kRedundantExpansions], 0u);
  EXPECT_EQ(sum.redundant_seconds, 0.0);
  sum[WorkItem::kRedundantExpansions] = res.work[WorkItem::kRedundantExpansions];
  sum.redundant_seconds = res.work.redundant_seconds;
  EXPECT_EQ(sum.fingerprint(), res.work.fingerprint())
      << sum.to_string() << "\n" << res.work.to_string();
  EXPECT_EQ(sum[WorkItem::kMsgsSent], res.net.messages_sent);
  EXPECT_EQ(sum[WorkItem::kMsgsReceived], res.net.messages_delivered);
  EXPECT_EQ(sum[WorkItem::kWireBytesSent], res.net.bytes_sent);
  EXPECT_EQ(sum[WorkItem::kWireBytesReceived], res.net.bytes_delivered);
  EXPECT_EQ(sum[WorkItem::kExpansions], res.total_expanded);
}

/// Two runs whose per-node ledgers are bit-identical.
inline void expect_same_ledgers(const sim::RunOutcome& a, const sim::RunOutcome& b) {
  ASSERT_EQ(a.worker_ledgers.size(), b.worker_ledgers.size());
  for (std::size_t n = 0; n < a.worker_ledgers.size(); ++n) {
    EXPECT_EQ(a.worker_ledgers[n].fingerprint(), b.worker_ledgers[n].fingerprint())
        << "node " << n;
  }
}

}  // namespace ftbb
