#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "core/code_set.hpp"
#include "core/frame.hpp"
#include "core/messages.hpp"
#include "support/rng.hpp"

namespace ftbb::core {
namespace {

Message round_trip(const Message& m) {
  support::ByteWriter w;
  encode_frame(m, nullptr, w);
  // frame_size() takes all but the first link of a code chain from the
  // list's cached chain bytes, so this also checks that count.
  EXPECT_EQ(w.size(), frame_size(m, nullptr));
  const FrameDecode d = decode_frame(w.data());
  EXPECT_TRUE(d.ok()) << to_string(d.status);
  return d.msg;
}

/// A code `depth` steps deep whose variable indices grow past the one-byte
/// varint range, so its encoded size is not simply 1 + depth.
PathCode deep_code(std::size_t depth, std::uint32_t salt = 0) {
  PathCode c = PathCode::root();
  for (std::size_t i = 0; i < depth; ++i) {
    c = c.child(static_cast<std::uint32_t>(i * 37 + salt), (i + salt) % 3 == 0);
  }
  return c;
}

TEST(Messages, WorkRequestRoundTrip) {
  Message m;
  m.type = MsgType::kWorkRequest;
  m.from = 17;
  m.best_known = -123.5;
  m.request_id = 42;
  const Message out = round_trip(m);
  EXPECT_EQ(out.type, MsgType::kWorkRequest);
  EXPECT_EQ(out.from, 17u);
  EXPECT_EQ(out.best_known, -123.5);
  EXPECT_EQ(out.request_id, 42u);
}

TEST(Messages, InfinityIncumbentSurvives) {
  Message m;
  m.type = MsgType::kWorkDeny;
  m.best_known = bnb::kInfinity;
  EXPECT_EQ(round_trip(m).best_known, bnb::kInfinity);
}

TEST(Messages, WorkGrantCarriesProblems) {
  Message m;
  m.type = MsgType::kWorkGrant;
  m.from = 3;
  m.best_known = 9.0;
  m.request_id = 7;
  m.problems.push_back(
      bnb::Subproblem{PathCode::root().child(1, false), -15.25});
  m.problems.push_back(
      bnb::Subproblem{PathCode::root().child(1, true).child(4, true), -7.5});
  const Message out = round_trip(m);
  ASSERT_EQ(out.problems.size(), 2u);
  EXPECT_EQ(out.problems[0].code, m.problems[0].code);
  EXPECT_EQ(out.problems[0].bound, -15.25);
  EXPECT_EQ(out.problems[1].code, m.problems[1].code);
}

TEST(Messages, WorkReportCarriesCodes) {
  Message m;
  m.type = MsgType::kWorkReport;
  m.from = 1;
  m.best_known = 2.5;
  m.codes = {PathCode::root().child(2, true),
             PathCode::root().child(2, false).child(3, true), deep_code(33),
             deep_code(78, 1)};
  const Message out = round_trip(m);
  ASSERT_EQ(out.codes.size(), 4u);
  EXPECT_EQ(out.codes[0], m.codes[0]);
  EXPECT_EQ(out.codes[1], m.codes[1]);
  EXPECT_EQ(out.codes[2].depth(), 33u);
  EXPECT_EQ(out.codes[3], deep_code(78, 1).view());
  EXPECT_EQ(out.codes, m.codes);
}

TEST(Messages, RootReportIsTheRootCode) {
  Message m;
  m.type = MsgType::kRootReport;
  m.codes = {PathCode::root()};
  const Message out = round_trip(m);
  ASSERT_EQ(out.codes.size(), 1u);
  EXPECT_TRUE(out.codes[0].is_root());
}

TEST(Messages, TableGossipRoundTrip) {
  Message m;
  m.type = MsgType::kTableGossip;
  std::vector<PathCode> codes;
  for (std::uint32_t i = 0; i < 50; ++i) {
    codes.push_back(PathCode::root().child(i, i % 2 == 0));
  }
  for (std::uint32_t i = 0; i < 10; ++i) codes.push_back(deep_code(32 + 5 * i, i));
  m.codes = CodeList(codes);
  const Message out = round_trip(m);
  EXPECT_EQ(out.codes.size(), 60u);
  EXPECT_EQ(out.codes.to_vector(), codes);
}

/// Export lists of the completion trie, whose chain links are sized from
/// the trie's nodes rather than from the words: codes deeper than 32, a
/// one-code table, a root-complete table, and a table whose export follows
/// a sibling contraction.
std::vector<CodeList> export_lists() {
  std::vector<CodeList> lists;
  CodeSet deep;
  for (std::uint32_t i = 0; i < 40; ++i) {
    deep.insert(deep_code(30 + i).sibling());  // one leaf per depth 30..69
  }
  lists.push_back(deep.export_list());

  CodeSet one;
  one.insert(deep_code(45, 2));
  lists.push_back(one.export_list());

  CodeSet root;
  root.insert(PathCode::root().child(3, false));
  root.insert(PathCode::root().child(3, true));
  EXPECT_TRUE(root.root_complete());
  lists.push_back(root.export_list());

  // Codes of one tree: deep_code() branches on the same variable at each
  // depth, and the siblings leave its path on the other bit.
  CodeSet contracted;
  const PathCode parent = deep_code(36);
  contracted.insert(deep_code(12).sibling());
  contracted.insert(parent.child(900, false).child(7, true));
  (void)contracted.export_list();  // memoized before the contraction
  contracted.insert(parent.child(900, true));
  contracted.insert(parent.child(900, false).child(7, false));
  contracted.insert(deep_code(20).sibling());
  EXPECT_TRUE(contracted.covered(parent));
  EXPECT_EQ(contracted.code_count(), 3u);
  lists.push_back(contracted.export_list());
  return lists;
}

/// Every list origin the size must hold for: trie exports, lists built from
/// a span of codes, and lists decoded off the wire.
std::vector<CodeList> list_inputs() {
  std::vector<CodeList> lists = export_lists();
  support::Rng rng(41);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<PathCode> codes;
    for (std::size_t i = 0, n = 1 + rng.pick(12); i < n; ++i) {
      PathCode c = PathCode::root();
      const std::size_t depth = rng.pick(70);
      for (std::size_t d = 0; d < depth; ++d) {
        c = c.child(static_cast<std::uint32_t>(rng.pick(300)), rng.chance(0.5));
      }
      codes.push_back(c);
    }
    std::sort(codes.begin(), codes.end());
    if (trial % 2 == 1) std::reverse(codes.begin(), codes.end());
    lists.emplace_back(codes);
  }
  const std::size_t built = lists.size();
  for (std::size_t i = 0; i < built; ++i) {
    Message m;
    m.type = MsgType::kTableGossip;
    m.codes = lists[i];
    support::ByteWriter w;
    encode_frame(m, nullptr, w);
    const FrameDecode d = decode_frame(w.data());
    EXPECT_TRUE(d.ok()) << to_string(d.status);
    lists.push_back(d.msg.codes);
  }
  return lists;
}

/// The chain bytes a list must cache: every link after the first, sized by
/// comparing the codes' words.
std::size_t chain_bytes_by_walk(const CodeList& codes) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < codes.size(); ++i) {
    n += chain_link_size(codes[i - 1], codes[i]);
  }
  return n;
}

/// A two-batch report stream whose second batch is `codes`: the first batch
/// sets a deep delta base, so the second ships at wire sequence 1.
std::vector<Message> report_stream(MsgType type, const CodeList& codes) {
  Message first;
  first.type = type;
  first.from = 4;
  first.report_seq = 1;
  first.codes = {deep_code(50, 3), deep_code(20, 1)};
  Message second = first;
  second.report_seq = 2;
  second.codes = codes;
  return {first, second};
}

TEST(Messages, GossipOfAnExportedDeepTableSizesExactly) {
  // A gossip list built from the completion trie takes its chain's link
  // sizes from the trie's nodes instead of comparing words; the frame's
  // size must still be exact, at wire sequence 0 and above it.
  for (const CodeList& codes : export_lists()) {
    ASSERT_FALSE(codes.empty());
    EXPECT_EQ(codes.chain_bytes(), chain_bytes_by_walk(codes));
    ReportDeltaState counted;
    ReportDeltaState encoded;
    std::uint64_t seq = 0;
    for (const Message& m : report_stream(MsgType::kTableGossip, codes)) {
      const std::size_t size = frame_size(m, &counted);
      support::ByteWriter w;
      encode_frame(m, &encoded, w);
      EXPECT_EQ(size, w.size()) << "wire sequence " << seq;
      const FrameDecode d = decode_frame(w.data());
      ASSERT_TRUE(d.ok()) << to_string(d.status);
      EXPECT_EQ(d.msg.codes, m.codes);
      EXPECT_EQ(d.msg.report_seq, seq++);
    }
  }
}

/// Sorted codes of one tree, sharing long prefixes: `n` codes, enough to
/// cross several of a front-coded list's whole-code records.
std::vector<PathCode> clustered_codes(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<PathCode> codes;
  for (std::size_t i = 0; i < n; ++i) {
    // Leave the spine of deep_code() at some depth, then go six levels on:
    // codes of equal length never nest, and codes leaving at different
    // depths part where the earlier one leaves.
    PathCode c = deep_code(20 + rng.pick(30), 1).sibling();
    for (std::uint32_t d = 0; d < 6; ++d) c = c.child(500 + d, rng.chance(0.5));
    codes.push_back(c);
  }
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  return codes;
}

TEST(Messages, IterationIndexAndVectorAgreeAcrossRestarts) {
  // Every kRestart-th code is stored whole and the rest front-coded against
  // the one before: decoding from the start, from a whole-code record and
  // in bulk must give the same codes on either side of each boundary.
  for (const std::size_t n : {std::size_t{1}, CodeList::kRestart - 1, CodeList::kRestart,
                              CodeList::kRestart + 1, 3 * CodeList::kRestart + 5}) {
    const std::vector<PathCode> codes = clustered_codes(n, n);
    const CodeList list(codes);
    ASSERT_EQ(list.size(), codes.size());
    std::size_t i = 0;
    for (const PathView c : list) {
      ASSERT_LT(i, codes.size());
      EXPECT_EQ(c, codes[i].view()) << "iteration, code " << i;
      EXPECT_EQ(list[i], codes[i]) << "operator[], code " << i;
      ++i;
    }
    EXPECT_EQ(i, codes.size());
    EXPECT_EQ(list.to_vector(), codes);
    EXPECT_EQ(list.back(), codes.back());
    EXPECT_EQ(list.back_depth(), codes.back().depth());
    EXPECT_EQ(list.front(), codes.front().view());
    EXPECT_EQ(list.chain_bytes(), chain_bytes_by_walk(list));
  }
}

/// The contracted table of `codes` by brute force: codes under another are
/// dropped and sibling pairs folded into their parent until none is left.
std::vector<PathCode> contracted(const std::vector<PathCode>& codes) {
  std::set<PathCode> set(codes.begin(), codes.end());
  for (bool changed = true; changed;) {
    changed = false;
    std::vector<PathCode> folds;  // codes whose sibling is stored too
    for (auto it = set.begin(); it != set.end();) {
      bool covered = false;
      for (PathCode p = *it; !covered && !p.is_root();) {
        p = p.parent();
        covered = set.count(p) != 0;
      }
      if (covered) {
        it = set.erase(it);
        changed = true;
        continue;
      }
      if (!it->is_root() && set.count(it->sibling()) != 0) folds.push_back(*it);
      ++it;
    }
    for (const PathCode& c : folds) {
      if (set.erase(c) == 0) continue;  // folded with its sibling already
      set.erase(c.sibling());
      set.insert(c.parent());
      changed = true;
    }
  }
  return {set.begin(), set.end()};
}

TEST(Messages, EqualCodesCompareEqualWhateverTheOrigin) {
  // Front coding is canonical: a table's export, the same codes built into
  // a list, and that list decoded off the wire hold the same records.
  CodeSet table;
  for (const PathCode& c : clustered_codes(70, 5)) table.insert(c);
  const CodeList exported = table.export_list();
  ASSERT_GT(exported.size(), 2 * CodeList::kRestart);
  const CodeList built(table.export_codes());
  Message m;
  m.type = MsgType::kTableGossip;
  m.codes = exported;
  const CodeList decoded = round_trip(m).codes;
  EXPECT_EQ(exported, built);
  EXPECT_EQ(exported, decoded);
  EXPECT_EQ(built, decoded);
  EXPECT_EQ(decoded.chain_bytes(), exported.chain_bytes());
  // One code more is a different list.
  std::vector<PathCode> more = table.export_codes();
  more.push_back(more.back().child(9000, true));
  EXPECT_FALSE(CodeList(more) == exported);

  // An export copies each chunk's records and rewrites only the chunk heads
  // and the records on its own restart slots. Tables of the same codes built
  // in different orders, or by gossip merges, chunk them differently, so
  // their chunk heads land at every offset mod kRestart of the export. The
  // codes go deeper than PathCode's inline words, and their variables (64
  // and up) take two varint bytes a word.
  support::Rng rng(11);
  std::vector<PathCode> completed;
  for (std::size_t i = 0; i < 900; ++i) {
    PathCode c = PathCode::root();
    // A few shallow codes cover regions of the deep ones.
    const std::size_t depth = rng.chance(0.05) ? 10 + rng.pick(20) : 34 + rng.pick(16);
    for (std::size_t d = 0; d < depth; ++d) {
      // Down one spine at first, so the codes share long prefixes.
      const bool bit = d < 16 ? d % 7 == 3 || rng.chance(0.1) : rng.chance(0.5);
      c = c.child(static_cast<std::uint32_t>(64 + 5 * d), bit);
    }
    completed.push_back(c);
  }
  const std::vector<PathCode> want = contracted(completed);
  ASSERT_GT(want.size(), 8 * CodeList::kRestart);
  ASSERT_GT(want.back().depth(), 32u);
  const CodeList want_list(want);
  const auto expect_export = [&](const CodeSet& t, const char* origin) {
    const CodeList got = t.export_list();
    ASSERT_EQ(got.size(), want.size()) << origin;
    EXPECT_EQ(got, want_list) << origin;
    EXPECT_EQ(got.chain_bytes(), want_list.chain_bytes()) << origin;
    for (std::size_t i = 0; i < got.size(); i += CodeList::kRestart) {
      EXPECT_EQ(got[i], want[i]) << origin << ", code " << i;
    }
    EXPECT_EQ(got.back(), want.back()) << origin;
    EXPECT_EQ(got.to_vector(), want) << origin;
  };
  std::vector<PathCode> sorted = completed;
  std::sort(sorted.begin(), sorted.end());
  const auto one_by_one = [](const std::vector<PathCode>& codes) {
    CodeSet t;
    for (const PathCode& c : codes) t.insert(c);
    return t;
  };
  expect_export(one_by_one(sorted), "sorted inserts");
  expect_export(one_by_one(std::vector<PathCode>(sorted.rbegin(), sorted.rend())),
                "reversed inserts");
  for (const std::uint64_t seed : {1, 2, 3}) {
    support::Rng order(seed);
    std::vector<PathCode> shuffled;
    for (const std::size_t i : order.sample_without_replacement(sorted.size(), sorted.size())) {
      shuffled.push_back(sorted[i]);
    }
    expect_export(one_by_one(shuffled), "shuffled inserts");
  }
  {
    CodeSet batch;
    batch.insert_all(std::span<const PathCode>(sorted));
    expect_export(batch, "one batch");
  }
  // Two lists of the codes, split anywhere, appended back to back: records
  // land on and leave every restart offset, in lists longer than a chunk.
  for (std::size_t split = 1; split < want.size(); split += 7) {
    const CodeList head(std::span<const PathCode>(want).first(split));
    const CodeList tail(std::span<const PathCode>(want).subspan(split));
    CodeList::Builder joined;
    joined.append_list(head, 0);
    joined.append_list(tail, common_prefix(want[split - 1], want[split]));
    const CodeList got = joined.finish();
    ASSERT_EQ(got, want_list) << "split at " << split;
    EXPECT_EQ(got.chain_bytes(), want_list.chain_bytes()) << "split at " << split;
    EXPECT_EQ(got.back(), want.back()) << "split at " << split;
  }
  // Gossip: members that completed interleaved shares of the codes merge
  // each other's exports, in rounds of growing lists.
  for (const std::size_t members : {2, 3, 5}) {
    std::vector<CodeSet> tables(members);
    for (std::size_t i = 0; i < completed.size(); ++i) tables[i % members].insert(completed[i]);
    CodeSet merged = tables[0];
    for (std::size_t m = 1; m < members; ++m) merged.insert_all(tables[m].export_list());
    expect_export(merged, "gossip merges");
    CodeSet back = tables[members - 1];
    back.insert_all(merged.export_list());
    expect_export(back, "gossip merge into a member");
  }
}

TEST(Messages, WireSizeGrowsWithPayload) {
  Message small;
  small.type = MsgType::kWorkReport;
  std::vector<PathCode> codes = {PathCode::root().child(1, false)};
  small.codes = CodeList(codes);
  Message large = small;
  for (std::uint32_t i = 0; i < 20; ++i) {
    codes.push_back(PathCode::root().child(1, true).child(i + 2, false));
  }
  large.codes = CodeList(codes);
  EXPECT_GT(frame_size(large, nullptr), frame_size(small, nullptr));
}

TEST(Messages, RequestIsSmall) {
  // Control messages should cost little under the 0.005 ms/byte model.
  Message m;
  m.type = MsgType::kWorkRequest;
  m.from = 1000;
  m.request_id = 100000;
  EXPECT_LE(frame_size(m, nullptr), 20u);
}

TEST(Messages, SummaryMentionsTypeAndCounts) {
  Message m;
  m.type = MsgType::kWorkGrant;
  m.from = 2;
  m.problems.push_back(bnb::Subproblem{PathCode::root().child(1, false), 0.0});
  const std::string s = m.summary();
  EXPECT_NE(s.find("work-grant"), std::string::npos);
  EXPECT_NE(s.find("problems=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Frames: property round-trips and decode robustness (core/frame.hpp).
// ---------------------------------------------------------------------------

PathCode random_code(support::Rng& rng, std::size_t max_depth = 12) {
  PathCode c = PathCode::root();
  // One code in ten is deeper than PathCode's 32 inline words.
  const std::size_t depth =
      rng.chance(0.1) ? 33 + rng.pick(48) : rng.pick(max_depth + 1);
  for (std::size_t i = 0; i < depth; ++i) {
    c = c.child(static_cast<std::uint32_t>(rng.pick(40)), rng.chance(0.5));
  }
  return c;
}

Message random_message(support::Rng& rng) {
  Message m;
  m.type = static_cast<MsgType>(1 + rng.pick(6));
  m.from = static_cast<NodeId>(rng.pick(1 << 20));
  m.request_id = rng.next() >> rng.pick(64);
  m.best_known = rng.chance(0.2) ? bnb::kInfinity : rng.uniform(-1e6, 1e6);
  switch (m.type) {
    case MsgType::kWorkRequest:
      break;
    case MsgType::kWorkDeny:
      m.busy = rng.chance(0.5);
      break;
    case MsgType::kWorkGrant:
      for (std::size_t i = 0, n = rng.pick(6); i < n; ++i) {
        m.problems.push_back(
            bnb::Subproblem{random_code(rng), rng.uniform(-1e3, 1e3)});
      }
      break;
    case MsgType::kWorkReport:
    case MsgType::kTableGossip:
      m.report_seq = 1 + rng.pick(100);
      [[fallthrough]];
    case MsgType::kRootReport: {
      std::vector<PathCode> codes;
      for (std::size_t i = 0, n = rng.pick(10); i < n; ++i) {
        codes.push_back(random_code(rng));
      }
      m.codes = CodeList(codes);
      break;
    }
  }
  return m;
}

/// Field-by-field equality over everything each type puts on the wire
/// (report_seq is transport bookkeeping, not content, and is excluded).
void expect_same_content(const Message& a, const Message& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.from, b.from);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.best_known),
            std::bit_cast<std::uint64_t>(b.best_known));
  EXPECT_EQ(a.request_id, b.request_id);
  if (a.type == MsgType::kWorkDeny) {
    EXPECT_EQ(a.busy, b.busy);
  }
  ASSERT_EQ(a.problems.size(), b.problems.size());
  for (std::size_t i = 0; i < a.problems.size(); ++i) {
    EXPECT_EQ(a.problems[i].code, b.problems[i].code);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.problems[i].bound),
              std::bit_cast<std::uint64_t>(b.problems[i].bound));
  }
  EXPECT_EQ(a.codes, b.codes);
}

std::vector<std::uint8_t> encode(const Message& m, ReportDeltaState* state) {
  support::ByteWriter w;
  encode_frame(m, state, w);
  return std::move(w.data());
}

TEST(Frames, RandomMessagesSurviveARoundTrip) {
  support::Rng rng(20260808);
  ReportDeltaState state;  // one sender's stream: chains above sequence 0
  for (int trial = 0; trial < 400; ++trial) {
    const Message m = random_message(rng);
    for (ReportDeltaState* s : {static_cast<ReportDeltaState*>(nullptr), &state}) {
      const FrameDecode d = decode_frame(encode(m, s));
      ASSERT_TRUE(d.ok()) << to_string(d.status);
      expect_same_content(m, d.msg);
    }
  }
  EXPECT_GT(state.seq, 0u);
}

TEST(Frames, CountingSizeMatchesEncodedSize) {
  // Two states advanced in lockstep: frame_size() must walk the same
  // delta-state path as encode_frame() for a chained report stream.
  support::Rng rng(7);
  {
    ReportDeltaState counted, encoded;
    for (int trial = 0; trial < 200; ++trial) {
      const Message m = random_message(rng);
      EXPECT_EQ(frame_size(m, &counted), encode(m, &encoded).size());
    }
  }
  // Every list origin, on every list-carrying type, at wire sequence 0 and
  // above it (the root report's chain is always self-contained).
  for (const CodeList& codes : list_inputs()) {
    EXPECT_EQ(codes.chain_bytes(), chain_bytes_by_walk(codes));
    for (const MsgType type :
         {MsgType::kWorkReport, MsgType::kTableGossip, MsgType::kRootReport}) {
      ReportDeltaState counted, encoded;
      for (const Message& m : report_stream(type, codes)) {
        EXPECT_EQ(frame_size(m, &counted), encode(m, &encoded).size())
            << to_string(type) << " at wire sequence " << counted.seq;
        EXPECT_EQ(frame_size(m, nullptr), encode(m, nullptr).size());
      }
    }
  }
}

TEST(Frames, DeltaChainDecodesStandaloneAcrossBatches) {
  // One sender incarnation emitting a stream of report batches: every frame
  // must decode in isolation (receivers are random fanout peers and any
  // frame may be the first one they see of this sender).
  support::Rng rng(99);
  ReportDeltaState state;
  for (std::uint64_t batch = 1; batch <= 50; ++batch) {
    Message m;
    m.type = batch % 7 == 0 ? MsgType::kTableGossip : MsgType::kWorkReport;
    m.from = 3;
    m.best_known = 10.0;
    m.report_seq = batch;
    std::vector<PathCode> codes;
    for (std::size_t i = 0, n = rng.pick(8); i < n; ++i) {
      codes.push_back(random_code(rng));
    }
    m.codes = CodeList(codes);
    // The worker fans the same batch out to several peers: every copy must
    // encode identically (the state advances once per report_seq).
    const auto first = encode(m, &state);
    const auto second = encode(m, &state);
    EXPECT_EQ(first, second);
    const FrameDecode d = decode_frame(first);
    ASSERT_TRUE(d.ok()) << to_string(d.status) << " at batch " << batch;
    EXPECT_EQ(d.msg.codes, m.codes);
    EXPECT_EQ(d.msg.report_seq, batch - 1);  // the chain's wire sequence
  }
  EXPECT_EQ(state.seq, 49u);
}

TEST(Frames, RootReportIsASelfContainedChainThatLeavesTheStreamAlone) {
  ReportDeltaState state;
  Message report;
  report.type = MsgType::kWorkReport;
  report.report_seq = 1;
  report.codes = {deep_code(10)};
  (void)encode(report, &state);
  report.report_seq = 2;
  report.codes = {deep_code(11)};
  (void)encode(report, &state);
  ASSERT_EQ(state.seq, 1u);

  Message root;
  root.type = MsgType::kRootReport;
  root.codes = {PathCode::root()};
  const auto buf = encode(root, &state);
  EXPECT_EQ(state.seq, 1u);
  EXPECT_EQ(state.batch_id, 2u);
  EXPECT_EQ(state.cur_last, deep_code(11));
  EXPECT_EQ(buf, encode(root, nullptr));
  const FrameDecode d = decode_frame(buf);
  ASSERT_TRUE(d.ok()) << to_string(d.status);
  EXPECT_EQ(d.msg.report_seq, 0u);
  EXPECT_EQ(d.msg.codes, root.codes);
}

TEST(Frames, EveryTruncationDecodesToErrorNotCrash) {
  support::Rng rng(13);
  for (int trial = 0; trial < 80; ++trial) {
    ReportDeltaState state;
    Message m = random_message(rng);
    // Half the report frames ship above sequence 0, with a delta base.
    if (trial % 2 == 1) (void)encode(random_message(rng), &state);
    m.report_seq = 1000;
    const auto buf = encode(m, &state);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      const FrameDecode d = decode_frame(buf.data(), len);
      EXPECT_FALSE(d.ok()) << "prefix " << len << "/" << buf.size();
    }
  }
}

TEST(Frames, EveryBitFlipDecodesOrErrorsNeverCrashes) {
  // No checksum in the frame, so a flipped payload bit may decode to a
  // different valid message — the guarantee under test is purely that no
  // single-bit corruption can crash or over-allocate the decoder.
  support::Rng rng(29);
  for (int trial = 0; trial < 40; ++trial) {
    ReportDeltaState state;
    Message m = random_message(rng);
    if (trial % 2 == 1) (void)encode(random_message(rng), &state);
    m.report_seq = 1000;
    const auto buf = encode(m, &state);
    for (std::size_t byte = 0; byte < buf.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto flipped = buf;
        flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
        (void)decode_frame(flipped);  // must return, never abort
      }
    }
  }
}

TEST(Frames, LongListsSurviveTruncationAndBitFlips) {
  // Lists past several whole-code records: every prefix of the frame is an
  // error, every single-bit flip decodes or errors, and neither aborts.
  support::Rng rng(57);
  for (int trial = 0; trial < 6; ++trial) {
    ReportDeltaState state;
    Message m;
    m.type = trial % 2 == 0 ? MsgType::kTableGossip : MsgType::kWorkReport;
    m.report_seq = 7;
    m.codes = CodeList(clustered_codes(20 + rng.pick(40), 100 + trial));
    if (trial % 3 == 1) (void)encode(random_message(rng), &state);
    const auto buf = encode(m, &state);
    const FrameDecode whole = decode_frame(buf);
    ASSERT_TRUE(whole.ok()) << to_string(whole.status);
    EXPECT_EQ(whole.msg.codes, m.codes);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      EXPECT_FALSE(decode_frame(buf.data(), len).ok()) << "prefix " << len;
    }
    for (std::size_t byte = 0; byte < buf.size(); ++byte) {
      auto flipped = buf;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << rng.pick(8));
      const FrameDecode d = decode_frame(flipped);
      if (d.ok()) {
        // A list that decodes is a sound one: its cached sizes hold.
        EXPECT_EQ(d.msg.codes.chain_bytes(), chain_bytes_by_walk(d.msg.codes));
        EXPECT_EQ(d.msg.codes.to_vector().size(), d.msg.codes.size());
      }
    }
  }
}

TEST(Frames, FramedUnknownTypeIsRejected) {
  Message m;
  m.type = MsgType::kWorkDeny;
  auto buf = encode(m, nullptr);
  for (const int type : {0, 7, 9, 0xfb, 0xff}) {
    buf[0] = static_cast<std::uint8_t>(type);  // outside the MsgType enum
    EXPECT_EQ(decode_frame(buf).status, DecodeStatus::kUnknownType);
  }
}

TEST(Frames, TrailingBytesAreALengthMismatch) {
  for (const MsgType type : {MsgType::kWorkRequest, MsgType::kWorkReport}) {
    Message m;
    m.type = type;
    auto buf = encode(m, nullptr);
    buf.push_back(0xab);
    EXPECT_EQ(decode_frame(buf).status, DecodeStatus::kLengthMismatch)
        << to_string(type);
  }
}

/// Frame header (type, from, best_known, request_id) for `type`.
support::ByteWriter frame_header(MsgType type) {
  support::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.varint(1);    // from
  w.f64(0.0);     // best_known
  w.varint(0);    // request_id
  return w;
}

TEST(Frames, HostileCountsNeverOverAllocate) {
  // A kWorkGrant claiming ~2^60 problems in a 20-byte buffer: the decoder
  // must bound the claimed count against the remaining bytes instead of
  // reserving petabytes.
  support::ByteWriter grant = frame_header(MsgType::kWorkGrant);
  grant.varint(1ull << 60);  // hostile problem count
  grant.u8(0);
  EXPECT_FALSE(decode_frame(grant.data()).ok());

  // Same attack through a report: a huge code count.
  support::ByteWriter report = frame_header(MsgType::kWorkReport);
  report.varint(0);           // wire seq 0: self-contained
  report.varint(1ull << 50);  // hostile code count
  EXPECT_FALSE(decode_frame(report.data()).ok());
}

TEST(Frames, HostileCodeListCountsNeverAbortOrOverAllocate) {
  // Code chains (reports, gossip, the root broadcast) reserve their code
  // and step-word storage up front; every count an attacker controls must
  // be checked against the input first.
  for (const MsgType type :
       {MsgType::kWorkReport, MsgType::kTableGossip, MsgType::kRootReport}) {
    // A huge code count.
    support::ByteWriter count = frame_header(type);
    count.varint(0);
    count.varint(1ull << 60);
    count.u8(0);
    EXPECT_EQ(decode_frame(count.data()).status, DecodeStatus::kCorruptPayload);

    // A base claiming 2^40 step words, and one past PathCode::kMaxDepth.
    for (const std::uint64_t depth : {std::uint64_t{1} << 40, PathCode::kMaxDepth + 1}) {
      support::ByteWriter base = frame_header(type);
      base.varint(1);      // wire seq 1: a base follows
      base.varint(depth);  // hostile base depth
      base.u8(0);
      EXPECT_FALSE(decode_frame(base.data()).ok());
    }

    // One delta appending 2^40 words, one reaching past kMaxDepth, and one
    // trimming more words than the chain holds.
    for (const std::uint64_t add : {std::uint64_t{1} << 40, PathCode::kMaxDepth + 1}) {
      support::ByteWriter grow = frame_header(type);
      grow.varint(0);  // self-contained
      grow.varint(1);  // one code
      grow.varint(0);  // trim
      grow.varint(add);
      EXPECT_EQ(decode_frame(grow.data()).status, DecodeStatus::kCorruptPayload);
    }
    support::ByteWriter trim = frame_header(type);
    trim.varint(0);
    trim.varint(1);
    trim.varint(5);  // trim 5 words off the empty root
    trim.varint(0);
    EXPECT_EQ(decode_frame(trim.data()).status, DecodeStatus::kCorruptPayload);

    // A step word whose variable index overflows 31 bits.
    support::ByteWriter wide = frame_header(type);
    wide.varint(0);
    wide.varint(1);
    wide.varint(0);
    wide.varint(1);
    wide.varint(std::uint64_t{PathCode::kMaxVar + 1} << 1);
    EXPECT_EQ(decode_frame(wide.data()).status, DecodeStatus::kCorruptPayload);
  }
}

TEST(Frames, DeltaChainsExpandPastTheirInputBytes) {
  // Codes sharing a deep prefix cost two bytes each on the wire but their
  // full depth in the decoded list: the decoder reserves what the input can
  // hold and grows from there, without rejecting the frame.
  const PathCode deep = deep_code(200);
  std::vector<PathCode> codes;
  std::size_t code_bytes = 0;
  for (std::uint32_t i = 0; i < 300; ++i) {
    codes.push_back(deep.child(5000 + i, true));
    code_bytes += codes.back().encoded_size();
  }
  Message m;
  m.type = MsgType::kTableGossip;
  m.codes = CodeList(codes);
  m.report_seq = 1;
  const auto buf = encode(m, nullptr);
  EXPECT_LT(buf.size(), code_bytes / 10);
  const FrameDecode d = decode_frame(buf);
  ASSERT_TRUE(d.ok()) << to_string(d.status);
  EXPECT_EQ(d.msg.codes, m.codes);
}

TEST(Frames, EmptyAndOneByteInputsAreErrors) {
  EXPECT_EQ(decode_frame(nullptr, 0).status, DecodeStatus::kTruncated);
  for (std::uint8_t type = 1; type <= 6; ++type) {
    EXPECT_EQ(decode_frame(&type, 1).status, DecodeStatus::kCorruptPayload);
  }
}

}  // namespace
}  // namespace ftbb::core
