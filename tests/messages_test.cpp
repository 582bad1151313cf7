#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/code_set.hpp"
#include "core/frame.hpp"
#include "core/messages.hpp"
#include "support/rng.hpp"

namespace ftbb::core {
namespace {

Message round_trip(const Message& m) {
  support::ByteWriter w;
  m.encode(w);
  // wire_size() takes a code list's size from its cached byte count, so
  // this also checks that count against the encoder.
  EXPECT_EQ(w.size(), m.wire_size());
  support::ByteReader r(w.data());
  Message out = Message::decode(r);
  EXPECT_TRUE(r.done());
  return out;
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

TEST(Messages, GossipOfAnExportedDeepTableSizesExactly) {
  // A gossip list built from the completion trie takes every code's size
  // from the trie's per-node byte counts instead of encoding it.
  CodeSet table;
  for (std::uint32_t i = 0; i < 40; ++i) {
    const PathCode c = deep_code(30 + i);
    table.insert(c.sibling());  // one completed leaf per depth 30..69
  }
  Message m;
  m.type = MsgType::kTableGossip;
  m.codes = table.export_list();
  ASSERT_EQ(m.codes.size(), 40u);
  EXPECT_EQ(m.codes.encoded_bytes(), table.encoded_bytes());
  EXPECT_EQ(round_trip(m).codes, m.codes);
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
  EXPECT_GT(large.wire_size(), small.wire_size());
}

TEST(Messages, RequestIsSmall) {
  // Control messages should cost little under the 0.005 ms/byte model.
  Message m;
  m.type = MsgType::kWorkRequest;
  m.from = 1000;
  m.request_id = 100000;
  EXPECT_LE(m.wire_size(), 20u);
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
// Frame codec: property round-trips and decode robustness (core/frame.hpp).
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

std::vector<std::uint8_t> encode_frame(const FrameCodec& codec,
                                       const Message& m,
                                       ReportDeltaState* state) {
  support::ByteWriter w;
  codec.encode(m, state, w);
  return std::move(w.data());
}

TEST(Frames, RandomMessagesSurviveBothVersions) {
  support::Rng rng(20260808);
  const FrameCodec legacy(FrameVersion::kLegacy);
  const FrameCodec v1(FrameVersion::kV1);
  for (int trial = 0; trial < 400; ++trial) {
    const Message m = random_message(rng);
    {
      const auto buf = encode_frame(legacy, m, nullptr);
      const FrameDecode d = FrameCodec::decode(buf);
      ASSERT_TRUE(d.ok()) << to_string(d.status);
      EXPECT_EQ(d.version, FrameVersion::kLegacy);
      expect_same_content(m, d.msg);
    }
    {
      ReportDeltaState state;
      const auto buf = encode_frame(v1, m, &state);
      const FrameDecode d = FrameCodec::decode(buf);
      ASSERT_TRUE(d.ok()) << to_string(d.status);
      EXPECT_EQ(d.version, FrameVersion::kV1);
      expect_same_content(m, d.msg);
    }
  }
}

TEST(Frames, CountingSizeMatchesEncodedSize) {
  support::Rng rng(7);
  for (const FrameVersion version :
       {FrameVersion::kLegacy, FrameVersion::kV1}) {
    const FrameCodec codec(version);
    // Two states advanced in lockstep: frame_size() must walk the same
    // delta-state path as encode() for a chained report stream.
    ReportDeltaState counted, encoded;
    for (int trial = 0; trial < 200; ++trial) {
      const Message m = random_message(rng);
      const std::size_t counted_size = codec.frame_size(m, &counted);
      const auto buf = encode_frame(codec, m, &encoded);
      EXPECT_EQ(counted_size, buf.size()) << to_string(version);
    }
  }
}

TEST(Frames, DeltaChainDecodesStandaloneAcrossBatches) {
  // One sender incarnation emitting a stream of report batches: every frame
  // must decode in isolation (receivers are random fanout peers and any
  // frame may be the first one they see of this sender).
  support::Rng rng(99);
  const FrameCodec v1(FrameVersion::kV1);
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
    const auto first = encode_frame(v1, m, &state);
    const auto second = encode_frame(v1, m, &state);
    EXPECT_EQ(first, second);
    const FrameDecode d = FrameCodec::decode(first);
    ASSERT_TRUE(d.ok()) << to_string(d.status) << " at batch " << batch;
    EXPECT_EQ(d.msg.codes, m.codes);
    EXPECT_EQ(d.msg.report_seq, batch - 1);  // codec's own wire sequence
  }
  EXPECT_EQ(state.seq, 49u);
}

TEST(Frames, EveryTruncationDecodesToErrorNotCrash) {
  support::Rng rng(13);
  for (const FrameVersion version :
       {FrameVersion::kLegacy, FrameVersion::kV1}) {
    const FrameCodec codec(version);
    for (int trial = 0; trial < 40; ++trial) {
      ReportDeltaState state;
      const Message m = random_message(rng);
      const auto buf = encode_frame(codec, m, &state);
      for (std::size_t len = 0; len < buf.size(); ++len) {
        const FrameDecode d = FrameCodec::decode(buf.data(), len);
        EXPECT_FALSE(d.ok())
            << to_string(version) << " prefix " << len << "/" << buf.size();
      }
    }
  }
}

TEST(Frames, EveryBitFlipDecodesOrErrorsNeverCrashes) {
  // No checksum in the frame, so a flipped payload bit may decode to a
  // different valid message — the guarantee under test is purely that no
  // single-bit corruption can crash or over-allocate the decoder.
  support::Rng rng(29);
  for (const FrameVersion version :
       {FrameVersion::kLegacy, FrameVersion::kV1}) {
    const FrameCodec codec(version);
    for (int trial = 0; trial < 20; ++trial) {
      ReportDeltaState state;
      const Message m = random_message(rng);
      const auto buf = encode_frame(codec, m, &state);
      for (std::size_t byte = 0; byte < buf.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
          auto flipped = buf;
          flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
          (void)FrameCodec::decode(flipped);  // must return, never abort
        }
      }
    }
  }
}

TEST(Frames, WrongVersionByteIsRecoverable) {
  Message m;
  m.type = MsgType::kWorkRequest;
  m.from = 5;
  auto buf = encode_frame(FrameCodec(FrameVersion::kV1), m, nullptr);
  ASSERT_GE(buf.size(), 2u);
  ASSERT_EQ(buf[0], kFrameMagic);
  buf[1] = 2;  // a future version we do not speak
  EXPECT_EQ(FrameCodec::decode(buf).status, DecodeStatus::kUnknownVersion);
  buf[1] = 0xee;
  EXPECT_EQ(FrameCodec::decode(buf).status, DecodeStatus::kUnknownVersion);
}

TEST(Frames, UnframedGarbageIsBadMagic) {
  // First byte is neither the v1 magic nor a legacy MsgType (1..6).
  const std::vector<std::uint8_t> garbage = {0x07, 0x01, 0x02, 0x03};
  EXPECT_EQ(FrameCodec::decode(garbage).status, DecodeStatus::kBadMagic);
  const std::vector<std::uint8_t> zero = {0x00};
  EXPECT_EQ(FrameCodec::decode(zero).status, DecodeStatus::kBadMagic);
}

TEST(Frames, FramedUnknownTypeIsRejected) {
  Message m;
  m.type = MsgType::kWorkDeny;
  auto buf = encode_frame(FrameCodec(FrameVersion::kV1), m, nullptr);
  buf[2] = 9;  // outside the MsgType enum
  EXPECT_EQ(FrameCodec::decode(buf).status, DecodeStatus::kUnknownType);
}

TEST(Frames, TrailingBytesAreALengthMismatch) {
  Message m;
  m.type = MsgType::kWorkRequest;
  for (const FrameVersion version :
       {FrameVersion::kLegacy, FrameVersion::kV1}) {
    auto buf = encode_frame(FrameCodec(version), m, nullptr);
    buf.push_back(0xab);
    EXPECT_EQ(FrameCodec::decode(buf).status, DecodeStatus::kLengthMismatch)
        << to_string(version);
  }
}

TEST(Frames, HostileCountsNeverOverAllocate) {
  // Legacy kWorkGrant claiming ~2^60 problems in a 20-byte buffer: the
  // decoder must bound the claimed count against the remaining bytes
  // instead of reserving petabytes.
  support::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kWorkGrant));
  w.varint(1);                 // from
  w.f64(0.0);                  // best_known
  w.varint(0);                 // request_id
  w.varint(1ull << 60);        // hostile problem count
  w.u8(0);
  EXPECT_FALSE(FrameCodec::decode(w.data()).ok());

  // Same attack through a v1 report frame: a huge code count and a huge
  // delta `add` count inside a tiny declared payload.
  support::ByteWriter v;
  v.u8(kFrameMagic);
  v.u8(1);
  v.u8(static_cast<std::uint8_t>(MsgType::kWorkReport));
  support::ByteWriter payload;
  payload.varint(1);            // from
  payload.f64(0.0);             // best_known
  payload.varint(0);            // request_id
  payload.varint(0);            // wire seq 0: self-contained
  payload.varint(1ull << 50);   // hostile code count
  v.varint(payload.size());
  for (const std::uint8_t b : payload.data()) v.u8(b);
  EXPECT_FALSE(FrameCodec::decode(v.data()).ok());
}

/// Legacy frame header (type, from, best_known, request_id) for `type`.
support::ByteWriter legacy_header(MsgType type) {
  support::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.varint(1);    // from
  w.f64(0.0);     // best_known
  w.varint(0);    // request_id
  return w;
}

/// Wraps a v1 payload (from, best_known, request_id already included) in a
/// frame header of `type`.
std::vector<std::uint8_t> v1_frame(MsgType type, const support::ByteWriter& payload) {
  support::ByteWriter v;
  v.u8(kFrameMagic);
  v.u8(1);
  v.u8(static_cast<std::uint8_t>(type));
  v.varint(payload.size());
  for (const std::uint8_t b : payload.data()) v.u8(b);
  return std::move(v.data());
}

support::ByteWriter v1_payload_header() {
  support::ByteWriter p;
  p.varint(1);    // from
  p.f64(0.0);     // best_known
  p.varint(0);    // request_id
  return p;
}

TEST(Frames, HostileCodeListCountsNeverAbortOrOverAllocate) {
  // Code lists (reports, gossip, the root broadcast) reserve their code and
  // step-word storage up front; every count an attacker controls must be
  // checked against the input first.
  for (const MsgType type :
       {MsgType::kWorkReport, MsgType::kTableGossip, MsgType::kRootReport}) {
    // Legacy: a huge code count.
    support::ByteWriter count = legacy_header(type);
    count.varint(1ull << 60);
    count.u8(0);
    EXPECT_EQ(FrameCodec::decode(count.data()).status,
              DecodeStatus::kCorruptPayload);

    // Legacy: a sane count whose one code claims 2^40 step words.
    support::ByteWriter depth = legacy_header(type);
    depth.varint(2);
    depth.varint(1ull << 40);
    depth.u8(2);
    depth.u8(4);
    EXPECT_EQ(FrameCodec::decode(depth.data()).status,
              DecodeStatus::kCorruptPayload);

    // Legacy: one code past PathCode::kMaxDepth, and a step word whose
    // variable index overflows 31 bits.
    support::ByteWriter max_depth = legacy_header(type);
    max_depth.varint(1);
    max_depth.varint(PathCode::kMaxDepth + 1);
    EXPECT_FALSE(FrameCodec::decode(max_depth.data()).ok());
    support::ByteWriter wide = legacy_header(type);
    wide.varint(1);
    wide.varint(1);
    wide.varint(std::uint64_t{PathCode::kMaxVar + 1} << 1);
    EXPECT_EQ(FrameCodec::decode(wide.data()).status,
              DecodeStatus::kCorruptPayload);
  }

  // v1 root report (flat list): a huge count.
  support::ByteWriter root = v1_payload_header();
  root.varint(1ull << 50);
  EXPECT_FALSE(FrameCodec::decode(v1_frame(MsgType::kRootReport, root)).ok());

  for (const MsgType type : {MsgType::kWorkReport, MsgType::kTableGossip}) {
    // v1 delta chain: a base claiming 2^40 step words.
    support::ByteWriter base = v1_payload_header();
    base.varint(1);             // wire seq 1: a base follows
    base.varint(1ull << 40);    // hostile base depth
    base.u8(0);
    EXPECT_FALSE(FrameCodec::decode(v1_frame(type, base)).ok());

    // v1 delta chain: one delta appending 2^40 words, and one trimming
    // more words than the chain holds.
    support::ByteWriter add = v1_payload_header();
    add.varint(0);              // self-contained
    add.varint(1);              // one code
    add.varint(0);              // trim
    add.varint(1ull << 40);     // hostile add
    EXPECT_FALSE(FrameCodec::decode(v1_frame(type, add)).ok());
    support::ByteWriter trim = v1_payload_header();
    trim.varint(0);
    trim.varint(1);
    trim.varint(5);             // trim 5 words off the empty root
    trim.varint(0);
    EXPECT_FALSE(FrameCodec::decode(v1_frame(type, trim)).ok());
  }
}

TEST(Frames, DeltaChainsExpandPastTheirInputBytes) {
  // Codes sharing a deep prefix cost two bytes each on the v1 wire but
  // their full depth in the decoded list: the decoder reserves what the
  // input can hold and grows from there, without rejecting the frame.
  const PathCode deep = deep_code(200);
  std::vector<PathCode> codes;
  for (std::uint32_t i = 0; i < 300; ++i) codes.push_back(deep.child(5000 + i, true));
  Message m;
  m.type = MsgType::kTableGossip;
  m.codes = CodeList(codes);
  m.report_seq = 1;
  const auto buf = encode_frame(FrameCodec(FrameVersion::kV1), m, nullptr);
  EXPECT_LT(buf.size(), m.codes.encoded_bytes() / 10);
  const FrameDecode d = FrameCodec::decode(buf);
  ASSERT_TRUE(d.ok()) << to_string(d.status);
  EXPECT_EQ(d.msg.codes, m.codes);
}

TEST(Frames, EmptyAndOneByteInputsAreErrors) {
  EXPECT_EQ(FrameCodec::decode(nullptr, 0).status, DecodeStatus::kTruncated);
  const std::uint8_t magic_only = kFrameMagic;
  EXPECT_FALSE(FrameCodec::decode(&magic_only, 1).ok());
}

}  // namespace
}  // namespace ftbb::core
