// The advice's bytes with every logged write stored in full: the raw wire
// form without delta var-logs, computed from the in-memory advice.
//
// Tests use it two ways. As a size measure, it keeps the paper's accounting
// (Figure 12 counts the value each logged write carries). As a structural
// fingerprint, it compares advice that decoding has rebuilt: patches are
// planned by node identity, and decoding each KSEG frame on its own keeps no
// identity across frames, so the same advice can re-encode with fewer
// patches while every value stays equal.
#ifndef TESTS_FULL_VALUE_ADVICE_H_
#define TESTS_FULL_VALUE_ADVICE_H_

#include <cstdint>
#include <vector>

#include "src/server/advice.h"

namespace karousos {

inline std::vector<uint8_t> FullValueAdviceBytes(const Advice& advice) {
  Advice rest = advice;
  rest.var_logs.clear();
  const Advice::SizeBreakdown b = rest.MeasureSize();
  ByteWriter encoded;
  rest.Serialize(&encoded);
  const size_t cut = b.tags + b.handler_logs;

  ByteWriter out;
  out.WriteBytes(encoded.bytes().data(), cut);
  out.WriteVarint(advice.var_logs.size());
  for (const auto& [vid, log] : advice.var_logs) {
    out.WriteFixed64(vid);
    out.WriteVarint(log.size());
    for (const auto& [op, entry] : log) {
      SerializeOpRef(op, &out);
      out.WriteByte(static_cast<uint8_t>(entry.kind));
      if (entry.kind == VarLogEntry::Kind::kWrite) {
        out.WriteValue(entry.value);
      }
      SerializeOpRef(entry.prec, &out);
    }
  }
  out.WriteBytes(encoded.bytes().data() + cut + b.var_logs, encoded.size() - cut - b.var_logs);
  return out.Take();
}

}  // namespace karousos

#endif  // TESTS_FULL_VALUE_ADVICE_H_
