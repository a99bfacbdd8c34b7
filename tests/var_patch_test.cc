// Delta var-logs: a logged write is stored in full or as a patch over the
// value its prec write logged, and the patch resolves inside the unit that
// holds it (src/server/advice.h). These tests pin the identity diff, the
// round trip through both coders, and every refusal of the resolver.
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/kseg_mutate.h"
#include "src/apps/app.h"
#include "src/common/segment.h"
#include "src/server/advice.h"
#include "src/server/rollover.h"
#include "src/server/server.h"
#include "src/workload/workload.h"

namespace karousos {
namespace {

constexpr VarId kVid = 42;

// A string too long to live inline, so each construction is a new node.
Value LongString(const std::string& s) { return Value(s + std::string(20, '.')); }

Value MapWith(const Value& base, std::string key, Value value) {
  ValueMap m = base.AsMap();
  m[key] = std::move(value);
  return Value(std::move(m));
}

std::vector<uint8_t> Encode(const Advice& a) {
  ByteWriter w;
  a.Serialize(&w);
  return w.Take();
}

std::optional<Advice> Decode(const std::vector<uint8_t>& bytes, StoredWrites* stored = nullptr) {
  ByteReader r(bytes);
  auto a = Advice::Deserialize(&r, stored);
  if (a && !r.AtEnd()) {
    return std::nullopt;
  }
  return a;
}

VarLogEntry Write(Value value, OpRef prec) {
  VarLogEntry e;
  e.kind = VarLogEntry::Kind::kWrite;
  e.value = std::move(value);
  e.prec = prec;
  return e;
}

Value SixKeys() {
  return MakeMap({{"k0", LongString("a")},
                  {"k1", Value(1)},
                  {"k2", Value(2)},
                  {"k3", LongString("b")},
                  {"k4", Value(4)},
                  {"k5", Value(5)}});
}

TEST(VarPatchTest, MapDiffSetsAndErasesByIdentity) {
  const Value base = SixKeys();
  ValueMap m = base.AsMap();
  m["k1"] = Value(10);
  m["k6"] = Value(6);
  m.erase("k2");
  const Value value(std::move(m));

  VarWriteDiff diff = DiffVarWrite(value, base);
  ASSERT_EQ(diff.form, VarWriteForm::kMapPatch);
  ASSERT_EQ(diff.sets.size(), 2u);
  EXPECT_EQ(diff.sets[0]->first, "k1");
  EXPECT_EQ(diff.sets[1]->first, "k6");
  ASSERT_EQ(diff.erases.size(), 1u);
  EXPECT_EQ(*diff.erases[0], "k2");

  // An equal string built apart is not identical: the diff sets it.
  const Value rebuilt = MapWith(base, "k0", LongString("a"));
  diff = DiffVarWrite(rebuilt, base);
  ASSERT_EQ(diff.form, VarWriteForm::kMapPatch);
  ASSERT_EQ(diff.sets.size(), 1u);
  EXPECT_EQ(diff.sets[0]->first, "k0");

  // The same node is an empty patch; the same NaN is identical to itself.
  EXPECT_EQ(DiffVarWrite(base, base).form, VarWriteForm::kMapPatch);
  EXPECT_TRUE(DiffVarWrite(base, base).sets.empty());
  const Value nan_map = MapWith(base, "n", Value(std::numeric_limits<double>::quiet_NaN()));
  const Value nan_copy = MapWith(nan_map, "k1", Value(11));
  diff = DiffVarWrite(nan_copy, nan_map);
  ASSERT_EQ(diff.sets.size(), 1u);
  EXPECT_EQ(diff.sets[0]->first, "k1");
}

TEST(VarPatchTest, PatchMustHaveFewerEntriesThanTheValue) {
  const Value one = MakeMap({{"a", Value(1)}});
  EXPECT_EQ(DiffVarWrite(MakeMap({{"a", Value(2)}}), one).form, VarWriteForm::kFull);
  EXPECT_EQ(DiffVarWrite(Value(ValueMap{}), Value(ValueMap{})).form, VarWriteForm::kFull);
  EXPECT_EQ(DiffVarWrite(Value(3), Value(3)).form, VarWriteForm::kFull);
  EXPECT_EQ(DiffVarWrite(one, MakeList({Value(1)})).form, VarWriteForm::kFull);
}

TEST(VarPatchTest, ListAppendNeedsAnIdenticalPrefix) {
  const Value head = LongString("head");
  const Value base = MakeList({head, Value(1)});
  ValueList items = base.AsList();
  items.push_back(Value(2));
  VarWriteDiff diff = DiffVarWrite(Value(items), base);
  ASSERT_EQ(diff.form, VarWriteForm::kListAppend);
  EXPECT_EQ(diff.appended_from, 2u);

  EXPECT_EQ(DiffVarWrite(MakeList({LongString("head"), Value(1), Value(2)}), base).form,
            VarWriteForm::kFull);
  EXPECT_EQ(DiffVarWrite(MakeList({head}), base).form, VarWriteForm::kFull);
  EXPECT_EQ(DiffVarWrite(MakeList({Value(1)}), Value(ValueList{})).form, VarWriteForm::kFull);
}

// A chain whose precs sort after their writes, as 45% of stacks' do.
Advice BackwardChain() {
  const Value m3 = SixKeys();
  const Value m1 = MapWith(m3, "k1", Value(100));
  const Value m0 = MapWith(m1, "k7", LongString("c"));
  const Value l5 = MakeList({Value(1), LongString("x")});
  ValueList l4 = l5.AsList();
  l4.push_back(Value(3));
  Advice a;
  VarLog& log = a.var_logs[kVid];
  log.emplace(OpRef{1, 7, 1}, Write(m0, OpRef{2, 7, 1}));
  log.emplace(OpRef{2, 7, 1}, Write(m1, OpRef{3, 7, 1}));
  log.emplace(OpRef{3, 7, 1}, Write(m3, kNilOp));
  VarLogEntry read;
  read.prec = OpRef{2, 7, 1};
  log.emplace(OpRef{3, 7, 2}, read);
  VarLog& list_log = a.var_logs[kVid + 1];
  list_log.emplace(OpRef{4, 7, 1}, Write(Value(std::move(l4)), OpRef{5, 7, 1}));
  list_log.emplace(OpRef{5, 7, 1}, Write(l5, kNilOp));
  return a;
}

void ExpectSameValues(const Advice& got, const Advice& want) {
  ASSERT_EQ(got.var_logs.size(), want.var_logs.size());
  for (const auto& [vid, log] : want.var_logs) {
    const VarLog& other = got.var_logs.at(vid);
    ASSERT_EQ(other.size(), log.size());
    for (const auto& [op, entry] : log) {
      const VarLogEntry& e = other.at(op);
      EXPECT_EQ(e.kind, entry.kind);
      EXPECT_EQ(e.prec, entry.prec);
      EXPECT_EQ(e.value, entry.value) << op.ToString();
    }
  }
}

TEST(VarPatchTest, RawRoundTripResolvesBackwardChains) {
  const Advice a = BackwardChain();
  const std::vector<uint8_t> bytes = Encode(a);
  StoredWrites stored;
  auto decoded = Decode(bytes, &stored);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(stored.full, 2u);
  EXPECT_EQ(stored.patches, 3u);
  ExpectSameValues(*decoded, a);
  // The decoded values share their bases' children, so they re-plan into
  // the same patches.
  EXPECT_EQ(Encode(*decoded), bytes);
}

TEST(VarPatchTest, CompactRoundTripResolvesBackwardChains) {
  const Advice a = BackwardChain();
  for (const KsegCompression c : {KsegCompression{true, false, false},
                                  KsegCompression{false, true, false},
                                  KsegCompression{true, true, false}}) {
    ByteWriter w;
    EncodeAdviceSegmentPayload(a, ContinuityImports{}, c, &w);
    auto decoded = DecodeAdviceSegmentPayload(w.bytes(), c.Flags());
    ASSERT_TRUE(decoded.has_value());
    ExpectSameValues(decoded->advice, a);
    EXPECT_EQ(Encode(decoded->advice), Encode(a));
  }
}

TEST(VarPatchTest, WritesOnAPrecCycleAreStoredInFull) {
  const Value base = SixKeys();
  const Value other = MapWith(base, "k1", Value(9));
  const Value tail = MapWith(other, "k2", Value(8));
  Advice a;
  VarLog& log = a.var_logs[kVid];
  log.emplace(OpRef{1, 7, 1}, Write(base, OpRef{2, 7, 1}));
  log.emplace(OpRef{2, 7, 1}, Write(other, OpRef{1, 7, 1}));
  log.emplace(OpRef{3, 7, 1}, Write(tail, OpRef{2, 7, 1}));
  const std::vector<const Value*> bases = PatchBases(log);
  EXPECT_EQ(bases[0], nullptr);
  EXPECT_EQ(bases[1], nullptr);
  EXPECT_EQ(bases[2], &log.at(OpRef{2, 7, 1}).value);

  const std::vector<uint8_t> bytes = Encode(a);
  StoredWrites stored;
  auto decoded = Decode(bytes, &stored);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(stored.full, 2u);
  EXPECT_EQ(stored.patches, 1u);
  ExpectSameValues(*decoded, a);
  EXPECT_EQ(Encode(*decoded), bytes);
}

TEST(VarPatchTest, WellFormedHandWrittenPatchesDecode) {
  const OpRef a{1, 7, 1};
  const OpRef b{1, 7, 2};
  const OpRef c{1, 7, 3};
  auto decoded = Decode(RawVarLog(kVid)
                            .MapPatch(a, {{"j", Value(3)}}, {"k"}, b)
                            .Full(b, MakeMap({{"k", Value(1)}, {"m", Value(2)}}), kNilOp)
                            .Append(c, {Value(4)}, OpRef{1, 7, 4})
                            .Full(OpRef{1, 7, 4}, MakeList({Value(1)}), kNilOp)
                            .AdviceBytes());
  ASSERT_TRUE(decoded.has_value());
  const VarLog& log = decoded->var_logs.at(kVid);
  EXPECT_EQ(log.at(a).value, MakeMap({{"j", Value(3)}, {"m", Value(2)}}));
  EXPECT_EQ(log.at(c).value, MakeList({Value(1), Value(4)}));
}

TEST(VarPatchTest, ResolverRefusesEveryMalformedPatch) {
  for (const auto& [name, log] : MalformedPatchLogs(kVid)) {
    EXPECT_FALSE(Decode(log.AdviceBytes()).has_value()) << name;
  }
}

// Each append copies the list it extends, so a chain of appends copies the
// square of its input and a long one meets kPatchCopyBytesPerInputByte.
Advice AppendChain(OpNum length) {
  Advice a;
  VarLog& log = a.var_logs[kVid];
  ValueList items{Value(0)};
  log.emplace(OpRef{1, 7, 1}, Write(Value(items), kNilOp));
  for (OpNum i = 2; i <= length; ++i) {
    items.push_back(Value(static_cast<int64_t>(i)));
    log.emplace(OpRef{1, 7, i}, Write(Value(items), OpRef{1, 7, i - 1}));
  }
  return a;
}

TEST(VarPatchTest, PlannerKeepsHonestUnitsWithinTheCopyBudget) {
  // Built apart, the lists share no nodes, but their items are inline, so
  // every write after the first could be an append.
  StoredWrites stored;
  ASSERT_TRUE(Decode(Encode(AppendChain(200)), &stored).has_value());
  EXPECT_EQ(stored.full, 1u);
  EXPECT_EQ(stored.patches, 199u);

  // A long chain would copy past the budget: the planner stores a write in
  // full whenever the next append would, so both coders' decoders accept.
  const Advice long_chain = AppendChain(5000);
  auto raw = Decode(Encode(long_chain), &stored);
  ASSERT_TRUE(raw.has_value());
  ExpectSameValues(*raw, long_chain);
  EXPECT_GT(stored.full, 1u);
  EXPECT_GT(stored.patches, stored.full);
  const KsegCompression c{true, true, false};
  ByteWriter w;
  EncodeAdviceSegmentPayload(long_chain, ContinuityImports{}, c, &w);
  auto decoded = DecodeAdviceSegmentPayload(w.bytes(), c.Flags());
  ASSERT_TRUE(decoded.has_value());
  ExpectSameValues(decoded->advice, long_chain);
}

TEST(VarPatchTest, MillionLongChainResolvesWithoutRecursion) {
  // Entry i patches over entry i + 1, so resolving the first entry walks the
  // whole chain before it can apply anything.
  constexpr OpNum kLength = 1000000;
  RawVarLog log(kVid);
  for (OpNum i = 1; i < kLength; ++i) {
    log.MapPatch(OpRef{1, 7, i}, {{"a", Value(static_cast<int64_t>(i))}}, {}, OpRef{1, 7, i + 1});
  }
  log.Full(OpRef{1, 7, kLength}, MakeMap({{"a", Value(0)}, {"b", Value(1)}}), kNilOp);
  auto decoded = Decode(log.AdviceBytes());
  ASSERT_TRUE(decoded.has_value());
  const VarLog& got = decoded->var_logs.at(kVid);
  ASSERT_EQ(got.size(), kLength);
  EXPECT_EQ(got.at(OpRef{1, 7, 1}).value, MakeMap({{"a", Value(1)}, {"b", Value(1)}}));
  EXPECT_EQ(got.at(OpRef{1, 7, kLength - 1}).value,
            MakeMap({{"a", Value(static_cast<int64_t>(kLength - 1))}, {"b", Value(1)}}));
}

TEST(VarPatchTest, SplicedLogIsOneMoreVarLog) {
  const Advice a = BackwardChain();
  const std::vector<uint8_t> bytes = Encode(a);
  auto decoded = Decode(RawVarLog(kVid + 9)
                            .Full(OpRef{9, 7, 1}, MakeList({Value(1)}), kNilOp)
                            .Append(OpRef{9, 7, 2}, {Value(2)}, OpRef{9, 7, 1})
                            .SplicedInto(a, bytes));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->var_logs.size(), a.var_logs.size() + 1);
  EXPECT_EQ(decoded->var_logs.at(kVid + 9).at(OpRef{9, 7, 2}).value,
            MakeList({Value(1), Value(2)}));
}

// Every raw advice frame of the mutation corpus that decodes re-encodes to
// its own bytes: the planner finds in the decoded values exactly the patches
// their bytes held, including over forged and misplaced content.
TEST(VarPatchTest, DecodedMutationFramesReencodeToTheirBytes) {
  WorkloadConfig wl;
  wl.app = "stacks";
  wl.kind = WorkloadKind::kMixed;
  wl.requests = 63;
  wl.seed = 7;
  wl.connections = 6;
  AppSpec app = MakeApp("stacks").value();
  ServerConfig config;
  config.concurrency = 6;
  config.seed = 7;
  Server server(*app.program, config);
  ServerRunResult run = server.Run(GenerateWorkload(wl));

  size_t frames = 0;
  size_t patched = 0;
  for (const KsegMutation& m : BuildMutationCorpus(run.trace, run.advice, 7)) {
    std::string error;
    auto reader = SegmentReader::FromBytes(m.advice_bytes.data(), m.advice_bytes.size(), &error);
    if (reader == nullptr) {
      continue;
    }
    SegmentRecord rec;
    while (reader->Next(&rec)) {
      if (rec.kind != SegmentKind::kAdvice || rec.flags != 0) {
        continue;
      }
      auto payload = DecodeAdviceSegmentPayload(rec.payload, rec.flags);
      if (!payload) {
        continue;
      }
      ByteWriter again;
      EncodeAdviceSegmentPayload(payload->advice, payload->imports, KsegCompression{}, &again);
      EXPECT_EQ(again.bytes(), rec.payload) << m.name << " frame " << rec.epoch;
      ByteReader r(rec.payload);
      StoredWrites stored;
      ASSERT_TRUE(Advice::Deserialize(&r, &stored).has_value());
      patched += stored.patches;
      ++frames;
    }
  }
  EXPECT_GT(frames, 1000u);
  EXPECT_GT(patched, 0u);
}

}  // namespace
}  // namespace karousos
