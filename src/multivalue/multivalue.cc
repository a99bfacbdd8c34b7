#include "src/multivalue/multivalue.h"

#include <map>
#include <sstream>

namespace karousos {

MultiValue MultiValue::Expanded(std::vector<Value> lanes) {
  MultiValue mv;
  if (lanes.empty()) {
    return mv;
  }
  bool uniform = true;
  for (size_t i = 1; i < lanes.size(); ++i) {
    if (!(lanes[i] == lanes[0])) {
      uniform = false;
      break;
    }
  }
  if (uniform) {
    mv.collapsed_ = std::move(lanes[0]);
    return mv;
  }
  mv.lanes_ = std::move(lanes);
  return mv;
}

MultiValue MultiValue::Map(const MultiValue& a, const std::function<Value(const Value&)>& f) {
  if (a.collapsed()) {
    return MultiValue(f(a.collapsed_));
  }
  // SIMD-on-demand: apply f once per *distinct* lane value. Groups routinely
  // contain many lanes carrying the same operand (identical requests fed the
  // same dictating writes); the deduplicated evaluation is where batched
  // re-execution gets its speedup (§2.3).
  std::map<Value, Value> memo;
  std::vector<Value> out;
  out.reserve(a.lanes_.size());
  for (const Value& lane : a.lanes_) {
    auto it = memo.find(lane);
    if (it == memo.end()) {
      it = memo.emplace(lane, f(lane)).first;
    }
    out.push_back(it->second);
  }
  return Expanded(std::move(out));
}

MultiValue MultiValue::Zip(const MultiValue& a, const MultiValue& b,
                           const std::function<Value(const Value&, const Value&)>& f) {
  if (a.collapsed() && b.collapsed()) {
    return MultiValue(f(a.collapsed_, b.collapsed_));
  }
  size_t width = a.collapsed() ? b.lanes_.size() : a.lanes_.size();
  std::vector<Value> out;
  out.reserve(width);
  for (size_t i = 0; i < width; ++i) {
    out.push_back(f(a.Lane(i), b.Lane(i)));
  }
  return Expanded(std::move(out));
}

std::string MultiValue::ToString() const {
  if (collapsed()) {
    return collapsed_.ToString();
  }
  std::ostringstream out;
  out << "mv<";
  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (i > 0) {
      out << "|";
    }
    out << lanes_[i].ToString();
  }
  out << ">";
  return out.str();
}

MultiValue MvAdd(const MultiValue& a, const MultiValue& b) {
  return MultiValue::Zip(a, b, [](const Value& x, const Value& y) {
    return Value(x.IntOr(0) + y.IntOr(0));
  });
}

MultiValue MvEq(const MultiValue& a, const MultiValue& b) {
  return MultiValue::Zip(a, b, [](const Value& x, const Value& y) { return Value(x == y); });
}

MultiValue MvConcat(const MultiValue& a, const MultiValue& b) {
  return MultiValue::Zip(a, b, [](const Value& x, const Value& y) {
    return Value(x.StringOrToString() + y.StringOrToString());
  });
}

}  // namespace karousos
